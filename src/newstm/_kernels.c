/* The compiled training chain: `_gibbs_sweep_py` repeated over the rows of
 * an (n_sweeps, n) block of uniforms, on the arrays themselves.
 *
 * Every weight is the same float64 product and quotient, and every sum is
 * taken in the same order, as in `_gibbs_sweep_py`, so a chain gives the
 * same bits as the Python kernels. That holds only without floating-point
 * contraction: `_kernels.py` builds this file with -ffp-contract=off, since
 * a fused multiply-add rounds once where Python rounds twice.
 *
 * The caller checks dtypes, shapes and contiguity, and that every doc id,
 * word id and topic id indexes its matrix; nothing is checked here.
 */

#include <stdint.h>

void gibbs_chain(int64_t n_sweeps, const double *uniforms, int64_t n_tokens, int64_t n_topics,
                 int64_t vocab_size, const int64_t *doc_ids, const int64_t *word_ids, int64_t *z,
                 int64_t *n_dk, int64_t *n_kw, int64_t *n_k, double alpha,
                 const double *eta_kw, const double *eta_sum, double *probs)
{
    for (int64_t s = 0; s < n_sweeps; s++) {
        const double *u = uniforms + s * n_tokens;
        for (int64_t i = 0; i < n_tokens; i++) {
            int64_t *dk = n_dk + doc_ids[i] * n_topics;
            int64_t w = word_ids[i];
            int64_t k = z[i];
            dk[k] -= 1;
            n_kw[k * vocab_size + w] -= 1;
            n_k[k] -= 1;

            double total = 0.0;
            for (k = 0; k < n_topics; k++) {
                double p = ((double)dk[k] + alpha)
                           * ((double)n_kw[k * vocab_size + w] + eta_kw[k * vocab_size + w])
                           / ((double)n_k[k] + eta_sum[k]);
                probs[k] = p;
                total += p;
            }

            /* Inverse-CDF draw on the unnormalised weights; the final
             * bucket absorbs any floating-point shortfall. */
            double r = u[i] * total;
            double acc = 0.0;
            int64_t k_new = n_topics - 1;
            for (k = 0; k < n_topics; k++) {
                acc += probs[k];
                if (r < acc) {
                    k_new = k;
                    break;
                }
            }

            z[i] = k_new;
            dk[k_new] += 1;
            n_kw[k_new * vocab_size + w] += 1;
            n_k[k_new] += 1;
        }
    }
}

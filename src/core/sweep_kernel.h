// Shared row-sweep kernels over the flat SoA local CSR (core/local_graph.h).
//
// Both bound families of UnifiedBoundEngine — the PHP-form fixed point and
// the THT finite-horizon DP — spend their inner loops computing, per
// visited node i, dot products of row i's transition probabilities against
// two dense value vectors. These templates are that loop, written once:
//
//  * one scan of row i produces BOTH dot products (the lower and upper
//    systems share the identical sum_j p_ij * x_j structure), halving the
//    row-index traffic of separate lower/upper passes;
//  * the next row's index and weight slabs are software-prefetched one
//    row ahead, so a sweep streams the two arena arrays;
//  * what happens with the dot products (the fixed point's clamped
//    Gauss–Seidel update, the DP's Jacobi double-buffer step, convergence
//    bookkeeping) is the caller's `body`, inlined at the call site.
//
// In-place (Gauss–Seidel) use is sound for the monotone bound operators:
// if every input value is a certified bound, any mixture of old and
// already-updated values still is, so the body may write through the same
// vectors it reads (see core/unified_bound_engine.h for the full argument).

#ifndef FLOS_CORE_SWEEP_KERNEL_H_
#define FLOS_CORE_SWEEP_KERNEL_H_

#include <cstdint>

#include "core/local_graph.h"
#include "util/check.h"

namespace flos {

/// One fused sweep: body(i, s_lo, s_hi) with s_lo = sum_j p_ij lo[j],
/// s_hi = sum_j p_ij hi[j], for i = 0..Size()-1 in visit order. `lo`/`hi`
/// may alias vectors the body writes (Gauss–Seidel).
template <typename Body>
inline void FusedRowSweep(const LocalGraph& local, const double* lo,
                          const double* hi, Body&& body) {
  const uint32_t n = local.Size();
  for (LocalId i = 0; i < n; ++i) {
    if (i + 1 < n) local.PrefetchRow(i + 1);
    const LocalRow row = local.Row(i);
    double s_lo = 0;
    double s_hi = 0;
    for (uint32_t e = 0; e < row.len; ++e) {
      const double p = row.weight[e];
      const LocalId j = row.idx[e];
      // Audit tier only: a column index past |S| or a negative transition
      // probability means the local CSR itself is corrupt, and every bound
      // computed from it is uncertified.
      FLOS_AUDIT(j < n, "local CSR column index out of range");
      FLOS_AUDIT(p >= 0.0, "negative transition probability in local CSR");
      s_lo += p * lo[j];
      s_hi += p * hi[j];
    }
    body(i, s_lo, s_hi);
  }
}

/// Pair-layout fused sweep: `bounds` interleaves (lower, upper) per node —
/// bounds[2i] = lower_i, bounds[2i+1] = upper_i — so each random column
/// access touches ONE cache line instead of two. body(i, s_lo, s_hi) as in
/// FusedRowSweep; the body may write back through `bounds` (Gauss–Seidel).
template <typename Body>
inline void FusedPairRowSweep(const LocalGraph& local, const double* bounds,
                              Body&& body) {
  const uint32_t n = local.Size();
  for (LocalId i = 0; i < n; ++i) {
    if (i + 1 < n) local.PrefetchRow(i + 1);
    const LocalRow row = local.Row(i);
    double s_lo = 0;
    double s_hi = 0;
    for (uint32_t e = 0; e < row.len; ++e) {
      const double p = row.weight[e];
      const LocalId j = row.idx[e];
      FLOS_AUDIT(j < n, "local CSR column index out of range");
      FLOS_AUDIT(p >= 0.0, "negative transition probability in local CSR");
      const double* const pj = bounds + 2 * static_cast<size_t>(j);
      s_lo += p * pj[0];
      s_hi += p * pj[1];
    }
    body(i, s_lo, s_hi);
  }
}

}  // namespace flos

#endif  // FLOS_CORE_SWEEP_KERNEL_H_

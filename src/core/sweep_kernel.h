// Shared row-sweep kernels over the flat SoA local CSR (core/local_graph.h).
//
// Both bound engines — the PHP-form fixed-point engine and the THT
// finite-horizon DP — spend their inner loops computing, per visited node
// i, dot products of row i's transition probabilities against one or two
// dense value vectors. These templates are that loop, written once:
//
//  * one scan of row i produces BOTH dot products (the lower and upper
//    systems share the identical sum_j p_ij * x_j structure), halving the
//    row-index traffic of separate lower/upper passes;
//  * the next row's index and weight slabs are software-prefetched one
//    row ahead, so a sweep streams the two arena arrays;
//  * what happens with the dot products (Gauss–Seidel in-place update,
//    Jacobi double-buffer DP step, convergence bookkeeping) is the
//    caller's `body`, inlined at the call site.
//
// In-place (Gauss–Seidel) use is sound for the monotone bound operators:
// if every input value is a certified bound, any mixture of old and
// already-updated values still is, so the body may write through the same
// vectors it reads (see bound_engine.cc for the full argument).

#ifndef FLOS_CORE_SWEEP_KERNEL_H_
#define FLOS_CORE_SWEEP_KERNEL_H_

#include <cstdint>
#include <memory>

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

/// Single-vector variant: body(i, s) with s = sum_j p_ij x[j]. Used by
/// lower-only consumers (UpdateLowerOnly, FinalizeExhausted).
template <typename Body>
inline void RowSweep(const LocalGraph& local, const double* x, Body&& body) {
  const uint32_t n = local.Size();
  for (LocalId i = 0; i < n; ++i) {
    if (i + 1 < n) local.PrefetchRow(i + 1);
    const LocalRow row = local.Row(i);
    double s = 0;
    for (uint32_t e = 0; e < row.len; ++e) {
      FLOS_AUDIT(row.idx[e] < n, "local CSR column index out of range");
      s += row.weight[e] * x[row.idx[e]];
    }
    body(i, s);
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

// ---------------------------------------------------------------------------
// SweepBackend: the pluggable inner-sweep kernel seam.
//
// A backend executes ONE whole fixed-point sweep (both bounds fused, or the
// lower system alone) over the pair-layout bound vector, applying the
// engine's monotone clamp rules per row, and returns the largest
// elementwise movement. Convergence policy, deadline checks, audit
// snapshots and coefficient maintenance stay in the engine — the backend is
// purely the O(edges(S)) hot loop, which is what makes an ISA-specialized
// implementation (sweep_backend_avx2.cc) drop-in safe:
//
//  * validity does not depend on the update ORDER — for the monotone bound
//    operators any mixture of old and updated values is certified and no
//    looser than the Jacobi iterate (see core/unified_bound_engine.h), so a
//    backend may reorder or block rows for SIMD;
//  * each backend must still tighten monotonically per row (the clamps are
//    part of the contract, not an optimization).
//
// The THT finite-horizon DP is NOT behind this seam: its Jacobi double
// buffer must be evaluated bit-exactly per horizon step (tests pin the DP
// against a reference recursion with exact equality), so it always runs the
// scalar FusedRowSweep path.

/// Which sweep backend to use. kAuto resolves to kAvx2 when the CPU
/// supports it, else kScalar.
enum class SweepBackendKind { kAuto, kScalar, kAvx2 };

/// Inputs of one fixed-point sweep. Arrays are indexed by LocalId and sized
/// to local->Size(); `bounds` is the interleaved (lower, upper) vector.
struct FixedPointSweepArgs {
  const LocalGraph* local = nullptr;
  double* bounds = nullptr;
  const double* self_coeff = nullptr;
  const double* mesh_dummy_coeff = nullptr;
  const double* plain_dummy_coeff = nullptr;
  /// Coefficient of r_d for each row's HIDDEN mass (alpha * hidden / w_i;
  /// all-zero on complete-adjacency accessors). Hidden edges may land on
  /// VISITED boundary nodes, so this multiplies dummy_mesh — never
  /// dummy_tight — and, lacking known return edges, it keeps the plain
  /// single-alpha redirect in BOTH upper constructions.
  const double* hidden_coeff = nullptr;
  double alpha = 0.5;
  double dummy_tight = 1.0;
  double dummy_mesh = 1.0;
  /// Star-to-mesh construction enabled (self_coeff/mesh_dummy_coeff live).
  bool self_loop = true;
};

/// One sweep-kernel implementation. Thread-compatible; one instance per
/// engine (backends may cache a derived layout of the local CSR).
class SweepBackend {
 public:
  virtual ~SweepBackend() = default;

  /// Stable identifier for stats/bench output ("scalar", "avx2").
  virtual const char* name() const = 0;

  /// The local CSR's structure or weights changed (growth); any cached
  /// derived layout must be rebuilt before the next sweep.
  virtual void InvalidateStructure() = 0;

  /// One fused Gauss–Seidel sweep updating both bounds in place. Returns
  /// the largest elementwise movement (max over lower raises and upper
  /// drops).
  virtual double FusedSweep(const FixedPointSweepArgs& args) = 0;

  /// One lower-only sweep (UpdateLowerOnly / FinalizeExhausted).
  virtual double LowerSweep(const FixedPointSweepArgs& args) = 0;
};

/// True iff this CPU can run the AVX2 backend.
bool Avx2SweepAvailable();

/// Resolves kAuto to a concrete kind for this CPU.
SweepBackendKind ResolveSweepBackendKind(SweepBackendKind kind);

/// Human-readable kind name ("auto", "scalar", "avx2").
const char* SweepBackendKindName(SweepBackendKind kind);

/// Constructs the backend for `kind` (kAuto resolves per CPU). Requesting
/// kAvx2 on a CPU without AVX2 falls back to scalar.
std::unique_ptr<SweepBackend> MakeSweepBackend(SweepBackendKind kind);

}  // namespace flos

#endif  // FLOS_CORE_SWEEP_KERNEL_H_

// AVX2 sweep backend: blocked-ELL lockstep kernel.
//
// Row-at-a-time SIMD over the local CSR is starved by the graph's degree
// skew: half the rows hold fewer than 8 entries, so per-row fixed costs
// (accumulator setup, horizontal reduction) and the unpredictable inner
// trip count dominate, and a vectorized dot product barely beats scalar.
// This backend instead vectorizes ACROSS rows:
//
//  * non-query rows are counting-sorted by length (descending) and packed
//    into blocks of 4; each block stores its entries column-major, padded
//    to the block's max length with zero-weight entries (sorting makes the
//    padding ~1% of the entries);
//  * one sweep walks each block with a single branch-predictable inner
//    loop: per step, 4 column indexes and 4 weights load contiguously, two
//    256-bit gathers fetch the 4 (lower, upper) pairs from the interleaved
//    bound vector, and two FMAs accumulate all 8 dot products in lockstep
//    — no per-row branches, no per-row reductions;
//  * the monotone clamps then commit the 4 rows of the block.
//
// Validity: processing rows in sorted blocks makes the sweep a
// block-Jacobi-within / Gauss–Seidel-across iteration. For the monotone
// bound operators ANY mixture of previous-sweep and already-updated values
// is certified and elementwise no looser than the Jacobi iterate (see
// core/unified_bound_engine.h), so the reordering changes floating-point
// trajectories but never certification. The parity test pins this backend
// against the scalar one bound-sandwich-wise.
//
// The packed layout depends on the CSR structure and weights, so the
// engine invalidates it on every growth; rebuilds cost about one sweep and
// amortize over the sweeps of that outer iteration.
//
// This is the ONLY translation unit allowed to use raw SIMD intrinsics
// (scripts/lint.py no-raw-intrinsics). Per-function target attributes keep
// the rest of the build free of -mavx2, so the binary still runs on
// baseline x86-64 (MakeSweepBackend dispatches on cpuid at runtime).

#include <immintrin.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/sweep_kernel.h"
#include "util/check.h"

namespace flos {

namespace {

// Pad-lane marker in the block row table.
constexpr LocalId kPadRow = static_cast<LocalId>(-1);

class Avx2SweepBackend final : public SweepBackend {
 public:
  const char* name() const override { return "avx2"; }

  void InvalidateStructure() override { dirty_ = true; }

  double FusedSweep(const FixedPointSweepArgs& args) override {
    if (dirty_) Rebuild(*args.local);
    return Sweep</*lower_only=*/false>(args);
  }

  double LowerSweep(const FixedPointSweepArgs& args) override {
    if (dirty_) Rebuild(*args.local);
    return Sweep</*lower_only=*/true>(args);
  }

 private:
  void Rebuild(const LocalGraph& local) {
    const uint32_t n = local.Size();
    // Gathers address bounds[2 * idx] through signed 32-bit indexes.
    FLOS_DCHECK(n < (1u << 30), "visited set too large for the AVX2 layout");
    const uint32_t q = local.query_count();
    const uint32_t rows = n > q ? n - q : 0;

    // Counting sort of non-query rows by length, descending, stable. Query
    // rows are pinned — their dot products are never consumed — so they are
    // simply left out of the layout.
    lens_.assign(rows, 0);
    uint32_t maxlen = 0;
    for (uint32_t r = 0; r < rows; ++r) {
      const uint32_t len = local.Row(q + r).len;
      lens_[r] = len;
      maxlen = std::max(maxlen, len);
    }
    starts_.assign(static_cast<size_t>(maxlen) + 1, 0);
    for (uint32_t r = 0; r < rows; ++r) ++starts_[lens_[r]];
    uint32_t running = 0;
    for (uint32_t len = maxlen;; --len) {
      const uint32_t count = starts_[len];
      starts_[len] = running;
      running += count;
      if (len == 0) break;
    }
    order_.resize(rows);
    for (uint32_t r = 0; r < rows; ++r) order_[starts_[lens_[r]]++] = q + r;

    // Pack blocks of 4 rows, column-major, padded to the block max length.
    const uint32_t blocks = (rows + 3) / 4;
    block_rows_.assign(static_cast<size_t>(blocks) * 4, kPadRow);
    block_width_.assign(blocks, 0);
    block_off_.assign(static_cast<size_t>(blocks) + 1, 0);
    size_t total = 0;
    for (uint32_t b = 0; b < blocks; ++b) {
      uint32_t width = 0;
      for (uint32_t lane = 0; lane < 4; ++lane) {
        const size_t slot = static_cast<size_t>(b) * 4 + lane;
        if (slot >= rows) break;
        block_rows_[slot] = order_[slot];
        width = std::max(width, local.Row(order_[slot]).len);
      }
      block_width_[b] = width;
      block_off_[b] = total;
      total += static_cast<size_t>(width) * 4;
    }
    block_off_[blocks] = total;
    ell_idx_.assign(total, 0);
    ell_weight_.assign(total, 0.0);
    for (uint32_t b = 0; b < blocks; ++b) {
      for (uint32_t lane = 0; lane < 4; ++lane) {
        const LocalId i = block_rows_[static_cast<size_t>(b) * 4 + lane];
        if (i == kPadRow) continue;
        const LocalRow row = local.Row(i);
        for (uint32_t e = 0; e < row.len; ++e) {
          // The audit-tier CSR validity checks run here, once per rebuild —
          // the same coverage the scalar path gets per sweep.
          FLOS_AUDIT(row.idx[e] < n, "local CSR column index out of range");
          FLOS_AUDIT(row.weight[e] >= 0.0,
                     "negative transition probability in local CSR");
          const size_t at = block_off_[b] + static_cast<size_t>(e) * 4 + lane;
          ell_idx_[at] = static_cast<int32_t>(2u * row.idx[e]);
          ell_weight_[at] = row.weight[e];
        }
      }
    }
    dirty_ = false;
  }

  template <bool lower_only>
  __attribute__((target("avx2,fma"))) double Sweep(
      const FixedPointSweepArgs& args) {
    double delta = 0;
    double* const bounds = args.bounds;
    const __m256d zero = _mm256_setzero_pd();
    const __m256d pass = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
    const __m128i one = _mm_set1_epi32(1);
    const uint32_t blocks = static_cast<uint32_t>(block_width_.size());
    for (uint32_t b = 0; b < blocks; ++b) {
      const uint32_t width = block_width_[b];
      const int32_t* idx = ell_idx_.data() + block_off_[b];
      const double* weight = ell_weight_.data() + block_off_[b];
      __m256d acc_lo = _mm256_setzero_pd();
      __m256d acc_hi = _mm256_setzero_pd();
      for (uint32_t e = 0; e < width; ++e, idx += 4, weight += 4) {
        const __m128i iv =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx));
        const __m256d wv = _mm256_loadu_pd(weight);
        acc_lo = _mm256_fmadd_pd(
            wv, _mm256_mask_i32gather_pd(zero, bounds, iv, pass, 8), acc_lo);
        if (!lower_only) {
          acc_hi = _mm256_fmadd_pd(
              wv,
              _mm256_mask_i32gather_pd(zero, bounds, _mm_add_epi32(iv, one),
                                       pass, 8),
              acc_hi);
        }
      }
      alignas(32) double s_lo[4];
      alignas(32) double s_hi[4];
      _mm256_store_pd(s_lo, acc_lo);
      _mm256_store_pd(s_hi, acc_hi);
      for (uint32_t lane = 0; lane < 4; ++lane) {
        const LocalId i = block_rows_[static_cast<size_t>(b) * 4 + lane];
        if (i == kPadRow) continue;
        double* const pi = bounds + 2 * static_cast<size_t>(i);
        const double lo = pi[0];
        const double vl =
            std::max(args.alpha * s_lo[lane] + args.self_coeff[i] * lo, lo);
        if (lower_only) {
          delta = std::max(delta, vl - lo);
          pi[0] = vl;
          continue;
        }
        const double hi = pi[1];
        const double hid = args.hidden_coeff[i] * args.dummy_mesh;
        double vu = args.alpha * s_hi[lane] +
                    args.plain_dummy_coeff[i] * args.dummy_tight + hid;
        if (args.self_loop) {
          vu = std::min(vu, args.alpha * s_hi[lane] + args.self_coeff[i] * hi +
                                args.mesh_dummy_coeff[i] * args.dummy_mesh +
                                hid);
        }
        vu = std::min(vu, hi);
        delta = std::max(delta, std::max(vl - lo, hi - vu));
        pi[0] = vl;
        pi[1] = vu;
      }
    }
    return delta;
  }

  bool dirty_ = true;
  std::vector<uint32_t> lens_;
  std::vector<uint32_t> starts_;
  std::vector<LocalId> order_;
  std::vector<LocalId> block_rows_;
  std::vector<uint32_t> block_width_;
  std::vector<size_t> block_off_;
  std::vector<int32_t> ell_idx_;
  std::vector<double> ell_weight_;
};

}  // namespace

bool CpuHasAvx2() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

std::unique_ptr<SweepBackend> MakeAvx2SweepBackend() {
  return std::make_unique<Avx2SweepBackend>();
}

}  // namespace flos

#include "ising/bitslice.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/accept_bounds.hpp"
#include "util/parallel.hpp"
#include "util/simd.hpp"

namespace saim::ising {

namespace {

using util::BoundsF64x4;
using util::F64x4;
using util::U64x4;

constexpr std::size_t kW = BitSliceEngine::kWord;

/// kNibble[b][l] = all-ones when bit l of nibble b is set — expands the 4
/// bits of a flip/spin nibble into canonical SIMD lane masks.
constexpr auto kNibble = [] {
  std::array<std::array<std::uint64_t, 4>, 16> t{};
  for (unsigned b = 0; b < 16; ++b) {
    for (unsigned l = 0; l < 4; ++l) {
      t[b][l] = ((b >> l) & 1u) ? ~std::uint64_t{0} : std::uint64_t{0};
    }
  }
  return t;
}();

inline U64x4 nibble_mask_u64(unsigned nib) noexcept {
  return U64x4::load(kNibble[nib].data());
}
inline F64x4 nibble_mask_f64(unsigned nib) noexcept {
  return util::bitcast_f64(nibble_mask_u64(nib));
}

/// Workspace of one 64-lane group. The per-spin fp arrays are PLANE-major:
/// chunk c (lanes 4c..4c+3) owns a contiguous plane of n 4-lane rows at
/// [(c*n + i)*4], and likewise a plane of `rows` 4-lane penalty row
/// activities at [(c*rows + r)*4]. A sweep processes one chunk's planes
/// end to end with the chunk's RNG state and energies held in registers,
/// and a flip's update walks only that chunk's J neighbourhood and the
/// spin's column of A instead of scattering 64-lane-wide words.
struct Group {
  std::size_t n = 0;
  std::size_t rows = 0;    ///< penalty rows (adjacency.penalty_rows())
  std::size_t lanes = 0;   ///< active lanes in this group (<= 64)
  std::size_t chunks = 0;  ///< ceil(lanes / 4)
  std::vector<std::uint64_t> spins;  ///< n words; bit b set <=> lane b is -1
  std::vector<double> coupling;      ///< C planes, chunks*n*4
  std::vector<double> activity;      ///< S planes, chunks*rows*4
  /// Set when every lane reads the same per-spin field vector (the
  /// run_batch case): the sweep broadcasts an 8-byte scalar instead of
  /// streaming a 32-byte H-plane row, halving sweep read traffic.
  const double* shared_fields = nullptr;
  std::vector<double> fields;  ///< H planes, chunks*n*4; empty when shared
  std::array<std::uint64_t, 4 * kW> rng{};  ///< xoshiro SoA: [word][lane]
  std::array<double, kW> energy{};
  std::array<double, kW> best_energy{};
  std::vector<std::uint64_t> best_spins;
  std::array<unsigned, kW / 4> active{};  ///< per-chunk 4-bit live mask
  std::size_t sweeps_done = 0;
};

/// delta = 2 * m_i * I per lane, with m_i = ±1 taken from `cur_mask`
/// (all-ones = spin is -1). Mirrors fl((2*m)*I) = ±fl(I+I) exactly.
inline F64x4 flip_delta4(F64x4 in, F64x4 cur_mask) noexcept {
  const F64x4 d2 = in + in;
  return util::mask_xor(d2, util::mask_and(cur_mask, F64x4::broadcast(-0.0)));
}

/// Biased exponent of u01 (0 or a normal in [2^-53, 1)) as f64 lanes; the
/// bracket [e-1023, e-1022) contains log2(u01) for nonzero u01.
inline F64x4 biased_exponent(F64x4 u01) noexcept {
  const U64x4 magic = U64x4::broadcast(0x4330000000000000ULL);  // 2^52
  return util::bitcast_f64(util::shr<52>(util::bitcast_u64(u01)) | magic) -
         F64x4::broadcast(0x1.0p52);
}

// Acceptance-test constants.
//
//   * Metropolis tier 1 decides u < exp(arg) from u's binary exponent
//     alone: with r = arg*log2(e), log2(u) lies in [e, e+1) for biased
//     exponent be = e + 1023, so be < r + 1022 - eps accepts and
//     be >= r + 1023 + eps rejects. The eps margin (1e-9) dwarfs every
//     rounding error in r (< 1e-12 for |arg| < 750); only draws whose
//     exponent straddles r — probability ~ the acceptance rate itself —
//     fall through to the exp_bounds tier, and only its ambiguous band
//     reaches libm. A u == 0 draw (biased exponent 0) carries no
//     exponent information and always falls through.
//   * pbit: for |x| >= kTanhSaturated, |tanh(x)| lies in [1 - 2^-48, 1],
//     so sign(tanh(x) + u) is sign(x) for every |u| < 1 - 2^-48; only
//     draws in the 2^-48-wide ambiguous band consult libm.
// Shared with the scalar engines' exp_accept/tanh_sign_nonneg (see
// util/accept_bounds.hpp): one set of tier constants means MetropolisSa,
// PBitMachine and these word-parallel sweeps all decide via the same
// tiered bound path.
constexpr double kLog2e = util::accept_detail::kLog2e;
constexpr double kTier1Accept = util::accept_detail::kTier1Accept;
constexpr double kTier1Reject = util::accept_detail::kTier1Reject;
constexpr double kTanhSaturated = util::accept_detail::kTanhSat;
constexpr double kTanhSatMargin = util::accept_detail::kTanhSatLo;

/// Pushes ±2*J_ij onto the flipped lanes of chunk plane `cplane` for every
/// neighbor of spin i, and ±2*a_ri onto the activity plane `splane` for
/// every row of spin i's column. `sgn` carries the sign bit of each lane's
/// NEW spin (scalar flip() adds 2*J*m_new and 2*a*m_new); `fmask` selects
/// the flipped lanes.
inline void apply_flips_plane(const Adjacency& adj, std::size_t i,
                              double* cplane, double* splane, F64x4 fmask,
                              F64x4 sgn) noexcept {
  const auto nbr = adj.neighbors(i);
  const auto w = adj.weights(i);
  for (std::size_t k = 0; k < nbr.size(); ++k) {
    const F64x4 w2 = F64x4::broadcast(2.0 * w[k]);
    const F64x4 add = util::mask_xor(w2, sgn);  // exact ±2*J sign flip
    double* row = cplane + static_cast<std::size_t>(nbr[k]) * 4;
    F64x4 cv = F64x4::load(row);
    cv = util::select(fmask, cv + add, cv);
    cv.store(row);
  }
  for (const ColumnEntry& e : adj.column(i)) {
    const F64x4 add = util::mask_xor(F64x4::broadcast(2.0 * e.coef), sgn);
    double* row = splane + static_cast<std::size_t>(e.row) * 4;
    F64x4 sv = F64x4::load(row);
    sv = util::select(fmask, sv + add, sv);
    sv.store(row);
  }
}

/// Local input of spin i per lane: C + h, plus the penalty share when the
/// model has a penalty block. The share is Adjacency::penalty_input's
/// expression lane for lane — acc from +0 in column order, a*(S - a*m)
/// with a*m = ±a exact via the sign bits of `cur_mask` (all-ones = spin
/// is -1), then (-P/2)*acc — so every lane rounds as the scalar engines.
inline F64x4 visit_input(const Adjacency& adj, std::size_t i, F64x4 base,
                         const double* splane, F64x4 cur_mask) noexcept {
  if (splane == nullptr) return base;
  const F64x4 msign = util::mask_and(cur_mask, F64x4::broadcast(-0.0));
  F64x4 acc = F64x4::zero();
  for (const ColumnEntry& e : adj.column(i)) {
    const F64x4 a = F64x4::broadcast(e.coef);
    const F64x4 sv =
        F64x4::load(splane + static_cast<std::size_t>(e.row) * 4);
    acc = acc + a * (sv - util::mask_xor(a, msign));
  }
  return base + F64x4::broadcast(adj.neg_half_penalty()) * acc;
}

void sweep_pbit(const Adjacency& adj, Group& g, double beta) {
  const F64x4 betav = F64x4::broadcast(beta);
  const F64x4 zero = F64x4::zero();
  const F64x4 one = F64x4::broadcast(1.0);
  const F64x4 scale53 = F64x4::broadcast(0x1.0p-53);
  const F64x4 signbit = F64x4::broadcast(-0.0);
  const F64x4 satv = F64x4::broadcast(kTanhSaturated);
  const F64x4 satmargin = F64x4::broadcast(kTanhSatMargin);

  const double* hsh = g.shared_fields;
  for (std::size_t c = 0; c < g.chunks; ++c) {
    const unsigned active = g.active[c];
    const std::size_t off = 4 * c;
    double* cplane = g.coupling.data() + c * g.n * 4;
    double* splane =
        g.rows == 0 ? nullptr : g.activity.data() + c * g.rows * 4;
    const double* hplane =
        hsh != nullptr ? nullptr : g.fields.data() + c * g.n * 4;
    U64x4 s0 = U64x4::load(g.rng.data() + 0 * kW + off);
    U64x4 s1 = U64x4::load(g.rng.data() + 1 * kW + off);
    U64x4 s2 = U64x4::load(g.rng.data() + 2 * kW + off);
    U64x4 s3 = U64x4::load(g.rng.data() + 3 * kW + off);
    F64x4 energy = F64x4::load(g.energy.data() + off);

    for (std::size_t i = 0; i < g.n; ++i) {
      const F64x4 hv = hsh != nullptr ? F64x4::broadcast(hsh[i])
                                      : F64x4::load(hplane + i * 4);
      const unsigned cur =
          static_cast<unsigned>((g.spins[i] >> off) & 0xFULL);
      const F64x4 in = visit_input(adj, i, F64x4::load(cplane + i * 4) + hv,
                                   splane, nibble_mask_f64(cur));
      const F64x4 x = betav * in;

      // Unconditional per-visit draw, as update_one's uniform_sym.
      const U64x4 bits = util::xoshiro4_next(s0, s1, s2, s3);
      const F64x4 u01 =
          util::u64_to_f64_exact53(util::shr<11>(bits)) * scale53;
      const F64x4 u = (u01 + u01) - one;

      int neg_bits;
      const F64x4 absx = util::mask_andnot(signbit, x);
      const unsigned sat =
          static_cast<unsigned>(util::movemask(util::cmp_ge(absx, satv)));
      if ((sat & active) == active) {
        // Saturated fast path: sign(tanh(x) + u) = sign(x) unless the
        // draw lands in the 2^-48-wide band next to ±1.
        neg_bits = util::movemask(util::cmp_lt(x, zero));
        const F64x4 absu = util::mask_andnot(signbit, u);
        int amb = util::movemask(util::cmp_ge(absu, satmargin)) &
                  static_cast<int>(active);
        if (amb != 0) {
          double xs[4], us[4];
          x.store(xs);
          u.store(us);
          for (int l = 0; l < 4; ++l) {
            if (((amb >> l) & 1) != 0) {
              const bool neg = std::tanh(xs[l]) + us[l] < 0.0;
              neg_bits =
                  (neg_bits & ~(1 << l)) | (static_cast<int>(neg) << l);
            }
          }
        }
      } else {
        // Bounds decide sign(tanh(x) + u) without libm for ~all lanes.
        const BoundsF64x4 tb = util::tanh_bounds(x);
        const F64x4 lo = tb.lo + u;
        const F64x4 hi = tb.hi + u;
        neg_bits = util::movemask(util::cmp_lt(hi, zero));
        const int sure = util::movemask(util::cmp_ge(lo, zero)) | neg_bits;
        int amb = ~sure & static_cast<int>(active);
        if (amb != 0) {
          double xs[4], us[4];
          x.store(xs);
          u.store(us);
          for (int l = 0; l < 4; ++l) {
            if (((amb >> l) & 1) != 0 &&
                std::tanh(xs[l]) + us[l] < 0.0) {
              neg_bits |= 1 << l;
            }
          }
        }
      }

      const unsigned flip4 =
          (static_cast<unsigned>(neg_bits) ^ cur) & active;
      if (flip4 != 0) {
        const F64x4 delta = flip_delta4(in, nibble_mask_f64(cur));
        const F64x4 fmask = nibble_mask_f64(flip4);
        energy = util::select(fmask, energy + delta, energy);
        const unsigned next = cur ^ flip4;
        g.spins[i] ^= static_cast<std::uint64_t>(flip4) << off;
        const F64x4 sgn = util::mask_and(nibble_mask_f64(next), signbit);
        apply_flips_plane(adj, i, cplane, splane, fmask, sgn);
      }
    }

    s0.store(g.rng.data() + 0 * kW + off);
    s1.store(g.rng.data() + 1 * kW + off);
    s2.store(g.rng.data() + 2 * kW + off);
    s3.store(g.rng.data() + 3 * kW + off);
    energy.store(g.energy.data() + off);
  }
}

void sweep_metropolis(const Adjacency& adj, Group& g, double beta) {
  const F64x4 nbetav = F64x4::broadcast(-beta);
  const F64x4 zero = F64x4::zero();
  const F64x4 scale53 = F64x4::broadcast(0x1.0p-53);
  const F64x4 min53 = F64x4::broadcast(0x1.0p-53);
  const F64x4 log2e = F64x4::broadcast(kLog2e);
  const F64x4 tier1_acc = F64x4::broadcast(kTier1Accept);
  const F64x4 tier1_rej = F64x4::broadcast(kTier1Reject);
  const F64x4 signbit = F64x4::broadcast(-0.0);

  const double* hsh = g.shared_fields;
  for (std::size_t c = 0; c < g.chunks; ++c) {
    const unsigned active = g.active[c];
    const std::size_t off = 4 * c;
    double* cplane = g.coupling.data() + c * g.n * 4;
    double* splane =
        g.rows == 0 ? nullptr : g.activity.data() + c * g.rows * 4;
    const double* hplane =
        hsh != nullptr ? nullptr : g.fields.data() + c * g.n * 4;
    U64x4 s0 = U64x4::load(g.rng.data() + 0 * kW + off);
    U64x4 s1 = U64x4::load(g.rng.data() + 1 * kW + off);
    U64x4 s2 = U64x4::load(g.rng.data() + 2 * kW + off);
    U64x4 s3 = U64x4::load(g.rng.data() + 3 * kW + off);
    F64x4 energy = F64x4::load(g.energy.data() + off);

    for (std::size_t i = 0; i < g.n; ++i) {
      const F64x4 hv = hsh != nullptr ? F64x4::broadcast(hsh[i])
                                      : F64x4::load(hplane + i * 4);
      const unsigned cur =
          static_cast<unsigned>((g.spins[i] >> off) & 0xFULL);
      const F64x4 cur_mask = nibble_mask_f64(cur);
      const F64x4 in = visit_input(adj, i, F64x4::load(cplane + i * 4) + hv,
                                   splane, cur_mask);
      const F64x4 delta = flip_delta4(in, cur_mask);

      // delta <= 0 accepts without a draw; only delta > 0 lanes advance
      // their stream — the scalar short-circuit, done with a masked step.
      const int acc0 = util::movemask(util::cmp_le(delta, zero));
      unsigned accept = static_cast<unsigned>(acc0) & active;
      const unsigned need = ~static_cast<unsigned>(acc0) & active;
      if (need != 0) {
        // Garbage lanes may advance with the unmasked step: their state
        // and results are never exported.
        const U64x4 bits =
            need == active
                ? util::xoshiro4_next(s0, s1, s2, s3)
                : util::xoshiro4_next_masked(nibble_mask_u64(need), s0, s1,
                                             s2, s3);
        const F64x4 u01 =
            util::u64_to_f64_exact53(util::shr<11>(bits)) * scale53;
        const F64x4 arg = nbetav * delta;

        // Tier 1: decide from u01's binary exponent vs r = arg*log2(e).
        const F64x4 r = arg * log2e;
        const F64x4 be = biased_exponent(u01);
        const unsigned acc1 =
            static_cast<unsigned>(util::movemask(
                util::cmp_lt(be, r + tier1_acc))) &
            need;
        const unsigned rej1 =
            static_cast<unsigned>(util::movemask(
                util::cmp_ge(be, r + tier1_rej))) &
            need;
        const unsigned zeroed =
            static_cast<unsigned>(
                util::movemask(util::cmp_lt(u01, min53))) &
            need;
        accept |= acc1 & ~zeroed;
        const unsigned amb = (need & ~(acc1 | rej1)) | zeroed;
        if (amb != 0) {
          // Tier 2: conservative exp bounds; tier 3: the libm call.
          const BoundsF64x4 eb = util::exp_bounds(arg);
          const unsigned acc2 =
              static_cast<unsigned>(
                  util::movemask(util::cmp_lt(u01, eb.lo))) &
              amb;
          const unsigned rej2 =
              static_cast<unsigned>(
                  util::movemask(util::cmp_ge(u01, eb.hi))) &
              amb;
          accept |= acc2;
          const unsigned amb2 = amb & ~(acc2 | rej2);
          if (amb2 != 0) {
            double args[4], us[4];
            arg.store(args);
            u01.store(us);
            for (unsigned l = 0; l < 4; ++l) {
              if (((amb2 >> l) & 1u) != 0 && us[l] < std::exp(args[l])) {
                accept |= 1u << l;
              }
            }
          }
        }
      }

      if (accept != 0) {
        const F64x4 fmask = nibble_mask_f64(accept);
        energy = util::select(fmask, energy + delta, energy);
        const unsigned next = cur ^ accept;
        g.spins[i] ^= static_cast<std::uint64_t>(accept) << off;
        const F64x4 sgn = util::mask_and(nibble_mask_f64(next), signbit);
        apply_flips_plane(adj, i, cplane, splane, fmask, sgn);
      }
    }

    s0.store(g.rng.data() + 0 * kW + off);
    s1.store(g.rng.data() + 1 * kW + off);
    s2.store(g.rng.data() + 2 * kW + off);
    s3.store(g.rng.data() + 3 * kW + off);
    energy.store(g.energy.data() + off);
  }
}

void update_best(Group& g) {
  std::uint64_t improved = 0;
  for (std::size_t b = 0; b < g.lanes; ++b) {
    if (g.energy[b] < g.best_energy[b]) {
      g.best_energy[b] = g.energy[b];
      improved |= std::uint64_t{1} << b;
    }
  }
  if (improved == 0) return;
  // One pass refreshes the best column of every improving lane at once.
  for (std::size_t i = 0; i < g.n; ++i) {
    g.best_spins[i] =
        (g.best_spins[i] & ~improved) | (g.spins[i] & improved);
  }
}

void run_group(const Adjacency& adj, Group& g, const SliceOptions& opt) {
  const std::size_t sweeps = opt.betas.size();
  const std::size_t stop_interval =
      opt.stop_interval == 0 ? 1 : opt.stop_interval;
  g.sweeps_done = sweeps;
  for (std::size_t t = 0; t < sweeps; ++t) {
    if (opt.stop != nullptr && t != 0 && t % stop_interval == 0 &&
        opt.stop->stop_requested()) {
      g.sweeps_done = t;
      break;
    }
    const double beta = opt.betas[t];
    if (opt.dynamics == SliceDynamics::kPbit) {
      sweep_pbit(adj, g, beta);
    } else {
      sweep_metropolis(adj, g, beta);
    }
    if (opt.track_best) update_best(g);
  }
}

}  // namespace

std::vector<SliceResult> BitSliceEngine::run(std::span<SliceLane> lanes,
                                             const SliceOptions& options) const {
  const Adjacency& adj = *adjacency_;
  const std::size_t n = adj.n();
  const std::size_t rows = adj.penalty_rows();
  const std::size_t total = lanes.size();
  std::vector<SliceResult> out(total);
  if (total == 0) return out;

  for (const SliceLane& lane : lanes) {
    if (lane.spins.size() != n || lane.fields == nullptr) {
      throw std::invalid_argument(
          "BitSliceEngine::run: lane spins/fields do not match the model");
    }
  }

  const std::size_t groups = (total + kWord - 1) / kWord;
  const auto run_one = [&](std::size_t gi) {
    const std::size_t lane0 = gi * kWord;
    const std::size_t count = std::min(kWord, total - lane0);

    Group g;
    g.n = n;
    g.rows = rows;
    g.lanes = count;
    g.chunks = (count + 3) / 4;
    g.spins.assign(n, 0);
    g.coupling.assign(g.chunks * n * 4, 0.0);
    g.activity.assign(g.chunks * rows * 4, 0.0);
    bool shared = true;
    for (std::size_t b = 1; b < count; ++b) {
      shared = shared && lanes[lane0 + b].fields == lanes[lane0].fields;
    }
    if (shared) {
      g.shared_fields = lanes[lane0].fields;
    } else {
      g.fields.assign(g.chunks * n * 4, 0.0);
    }
    for (std::size_t c = 0; c < g.chunks; ++c) {
      const std::size_t live = std::min<std::size_t>(4, count - 4 * c);
      g.active[c] = (1u << live) - 1u;
    }

    std::vector<double> lane_activity(rows);
    for (std::size_t b = 0; b < count; ++b) {
      const SliceLane& lane = lanes[lane0 + b];
      const std::size_t plane = (b / 4) * n * 4 + (b % 4);
      for (std::size_t i = 0; i < n; ++i) {
        if (lane.spins[i] < 0) g.spins[i] |= std::uint64_t{1} << b;
        if (!shared) g.fields[plane + i * 4] = lane.fields[i];
        g.coupling[plane + i * 4] = adj.coupling_input(lane.spins, i);
      }
      adj.activities(lane.spins, lane_activity);
      const std::size_t splane = (b / 4) * rows * 4 + (b % 4);
      for (std::size_t r = 0; r < rows; ++r) {
        g.activity[splane + r * 4] = lane_activity[r];
      }
      g.energy[b] = lane.energy;
      for (std::size_t j = 0; j < 4; ++j) g.rng[j * kW + b] = lane.rng[j];
    }
    if (options.track_best) {
      g.best_energy = g.energy;
      g.best_spins = g.spins;
    }

    run_group(adj, g, options);

    for (std::size_t b = 0; b < count; ++b) {
      SliceResult& r = out[lane0 + b];
      r.last.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        r.last[i] = ((g.spins[i] >> b) & 1u) != 0 ? std::int8_t{-1}
                                                  : std::int8_t{1};
      }
      r.last_energy = g.energy[b];
      r.sweeps = g.sweeps_done;
      if (options.track_best) {
        r.best.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
          r.best[i] = ((g.best_spins[i] >> b) & 1u) != 0 ? std::int8_t{-1}
                                                         : std::int8_t{1};
        }
        r.best_energy = g.best_energy[b];
      } else {
        r.best = r.last;
        r.best_energy = r.last_energy;
      }
    }
  };

  if (options.threads == 1 || groups == 1) {
    for (std::size_t gi = 0; gi < groups; ++gi) run_one(gi);
  } else {
    util::parallel_for(groups, run_one, options.threads);
  }
  return out;
}

}  // namespace saim::ising

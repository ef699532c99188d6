#ifndef UQSIM_RANDOM_RNG_H_
#define UQSIM_RANDOM_RNG_H_

/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * µqSim requires bit-reproducible simulations: the same seed must
 * yield the same event trace on every platform.  We therefore avoid
 * std::mt19937 + std::*_distribution (whose algorithms are
 * implementation-defined) and implement xoshiro256++ plus explicit
 * sampling transforms.
 *
 * Streams: every simulator component draws from its own RngStream,
 * derived from the master seed and a component label, so adding a
 * component never perturbs the samples another component sees.
 */

#include <cstdint>
#include <string>
#include <string_view>

namespace uqsim {
namespace random {

/** SplitMix64 step; used for seeding and stream derivation. */
std::uint64_t splitmix64(std::uint64_t& state);

/**
 * xoshiro256++ generator.
 *
 * Passes BigCrush; period 2^256 - 1.  All µqSim randomness flows
 * through this type.
 */
class Rng {
  public:
    /** Seeds the four state words via SplitMix64. */
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

    /** Next raw 64-bit output. */
    std::uint64_t nextU64();

    /** Uniform double in [0, 1) with 53 bits of precision. */
    double nextDouble();

    /** Uniform double in (0, 1]; safe as an argument to log(). */
    double nextDoubleOpenLeft();

    /** Uniform integer in [0, bound) without modulo bias. */
    std::uint64_t nextBounded(std::uint64_t bound);

    /** Bernoulli trial with success probability @p p. */
    bool nextBool(double p);

    /**
     * Standard normal variate (Marsaglia polar method with one value
     * of carry-over state).
     */
    double nextGaussian();

    /** Raw generator state, exposed for the snapshot folds: the
     *  four xoshiro256++ state words plus the Gaussian carry. */
    struct State {
        std::uint64_t words[4];
        bool hasSpareGaussian;
        double spareGaussian;
    };
    State
    state() const
    {
        return State{{state_[0], state_[1], state_[2], state_[3]},
                     hasSpareGaussian_,
                     spareGaussian_};
    }

  private:
    std::uint64_t state_[4];
    bool hasSpareGaussian_ = false;
    double spareGaussian_ = 0.0;
};

/**
 * A named, independently seeded random stream.
 *
 * The stream seed is derived from (master seed, label) with a string
 * hash folded through SplitMix64, so streams are stable across runs
 * and independent of creation order.
 */
class RngStream : public Rng {
  public:
    RngStream(std::uint64_t master_seed, std::string_view label);

    const std::string& label() const { return label_; }

    /** The derived seed, exposed for diagnostics. */
    std::uint64_t derivedSeed() const { return derivedSeed_; }

    /** Derivation function (also used by tests). */
    static std::uint64_t deriveSeed(std::uint64_t master_seed,
                                    std::string_view label);

  private:
    std::string label_;
    std::uint64_t derivedSeed_;
};

}  // namespace random
}  // namespace uqsim

#endif  // UQSIM_RANDOM_RNG_H_

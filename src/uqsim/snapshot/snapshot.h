#ifndef UQSIM_SNAPSHOT_SNAPSHOT_H_
#define UQSIM_SNAPSHOT_SNAPSHOT_H_

/**
 * @file
 * Fixed-size, checksummed binary simulation snapshots
 * (`uqsim-snapshot-v2`, docs/FORMATS.md).
 *
 * A snapshot pins a deterministic run at an exact executed-event
 * count.  The 128-byte file carries (a) the *replay coordinates* —
 * config digest, master seed, simulation clock, executed-event count,
 * and the engine's running trace digest at the pin — and (b) one
 * order-sensitive FNV-1a fold per stateful layer (engine, clients,
 * dispatcher, network, disks, faults, stats).  Each layer produces
 * its fold with one `foldState(Digest&) const`.
 *
 * Restore is replay-validated (docs/ARCHITECTURE.md §"Checkpoint /
 * restore"): events are closures, so the pending-event set is not
 * re-materialized from bytes.  Instead the restorer rebuilds the
 * simulation from the identical configuration, replays
 * deterministically to the pinned event count, checks the trace
 * digest, and then compares the seven live folds with the stored
 * ones.  A divergence is a SnapshotStateError naming the first layer
 * that differs and both fold values.
 *
 * File integrity: both magics, a whole-file CRC-64, the version and
 * the exact size are checked at open (SnapshotFormatError), so a
 * truncated, bit-flipped or foreign-version file is rejected before
 * any replay happens.
 */

#include <array>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace uqsim {
namespace snapshot {

/** Leading file magic ("UQSNAP01"). */
inline constexpr char kMagic[8] = {'U', 'Q', 'S', 'N',
                                   'A', 'P', '0', '1'};
/** Trailing footer magic. */
inline constexpr char kFooterMagic[8] = {'U', 'Q', 'S', 'N',
                                         'A', 'P', 'E', 'D'};
/** Format version this build reads and writes. */
inline constexpr std::uint32_t kFormatVersion = 2;
/** Exact size of a version-2 file. */
inline constexpr std::size_t kSnapshotSize = 128;

/** Base class of every snapshot failure. */
class SnapshotError : public std::runtime_error {
  public:
    using std::runtime_error::runtime_error;
};

/** The file itself is unusable: bad magic, checksum mismatch,
 *  unsupported version, wrong size. */
class SnapshotFormatError : public SnapshotError {
  public:
    using SnapshotError::SnapshotError;
};

/** The file parsed, but it disagrees with the live simulation:
 *  config-digest mismatch, or replay divergence in the trace digest
 *  or a layer fold. */
class SnapshotStateError : public SnapshotError {
  public:
    using SnapshotError::SnapshotError;
};

/** Stateful layers, in on-disk fold order. */
enum class Layer : std::size_t {
    Engine,      ///< clock, event counters, queue and pool state
    Clients,     ///< workload generators (RNG, outstanding, counters)
    Dispatcher,  ///< router state, edges, connection pools
    Network,     ///< façade + model (constant / flow) state
    Disks,       ///< per-disk in-flight operations and counters
    Faults,      ///< fault scheduler streams and counters
    Stats,       ///< recorders and measurement counters
};
inline constexpr std::size_t kLayerCount = 7;

/** Stable uppercase layer name for error messages. */
const char* layerName(Layer layer);

/** One fold per layer, indexed by Layer. */
using LayerFolds = std::array<std::uint64_t, kLayerCount>;

/** CRC-64/XZ (ECMA-182, reflected) over @p size bytes. */
std::uint64_t crc64(const void* data, std::size_t size);

/** "0x" plus 16 lowercase hex digits, for error messages. */
std::string hex(std::uint64_t value);

/**
 * Order-sensitive FNV-1a fold (byte-wise, endian-independent — the
 * same folding the engine's trace digest uses).
 */
class Digest {
  public:
    void u64(std::uint64_t value);
    void i64(std::int64_t value);
    void u32(std::uint32_t value) { u64(value); }
    /** Folds the exact bit pattern, so -0.0 != +0.0 and NaNs are
     *  compared representation-wise. */
    void f64(double value);
    void boolean(bool value) { u64(value ? 1 : 0); }
    void str(std::string_view text);

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xCBF29CE484222325ULL;  // FNV offset basis
};

/** Replay coordinates stored in the snapshot header. */
struct SnapshotMeta {
    /** Simulation composition fingerprint
     *  (Simulation::configDigest). */
    std::uint64_t configDigest = 0;
    /** Master seed of the run. */
    std::uint64_t masterSeed = 0;
    /** Simulation clock at the pin (SimTime ticks). */
    std::int64_t simTime = 0;
    /** Executed-event count at the pin. */
    std::uint64_t executedEvents = 0;
    /** Engine trace digest at the pin. */
    std::uint64_t traceDigest = 0;
};

/** Everything a version-2 file holds. */
struct Snapshot {
    SnapshotMeta meta;
    LayerFolds folds{};
};

/** The kSnapshotSize-byte little-endian image of @p snapshot. */
std::vector<std::uint8_t> encode(const Snapshot& snapshot);

/**
 * Parses an image, checking in order: the minimum size, both magics,
 * the whole-file CRC, the version, then the exact size.
 * @throws SnapshotFormatError on any defect.
 */
Snapshot decode(const std::vector<std::uint8_t>& bytes);

/**
 * Atomically writes @p snapshot to @p path: the bytes go to
 * "<path>.tmp", which is flushed, closed, and renamed over @p path,
 * so a crash mid-write never leaves a half-written file under the
 * final name.  @throws SnapshotError on I/O failure.
 */
void writeFile(const std::string& path, const Snapshot& snapshot);

/** Reads and decodes @p path.  @throws SnapshotError when the file
 *  cannot be read, SnapshotFormatError (prefixed with the path) when
 *  it does not decode. */
Snapshot readFile(const std::string& path);

}  // namespace snapshot
}  // namespace uqsim

#endif  // UQSIM_SNAPSHOT_SNAPSHOT_H_

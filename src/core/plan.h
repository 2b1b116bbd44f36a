// The canonical stream-plan IR ("MergePlan") and its universal verifier.
//
// Every subsystem of this repository ultimately describes the same
// artifact — a forest of (possibly truncated) streams in which later
// streams merge into earlier ones under the continuous-playback
// constraint. Historically each layer encoded it its own way: the
// slotted `core/merge_forest` trees, the continuous
// `merging/general_forest`, and the `schedule/*` slot structures, each
// with private cost / peak-bandwidth / traversal code. `MergePlan` is
// the one flat format they all now emit and consume:
//
//  * SoA layout — parallel arrays `{start, delay, parent, merge_time,
//    length}` indexed by stream id (ids are nondecreasing in start
//    time), children stored as CSR-style ranges. The whole plan lives
//    in two arena blocks (one per element type), no per-node
//    allocation, so the hot cost/peak passes are straight-line scans
//    over contiguous memory.
//  * One verifier — `plan::verify` checks, for any producer, the
//    paper's full invariant set in a single walk: continuous playback
//    (the pieces of every client's receiving program partition
//    (0, L]), the Section-3.3 buffer bound b(x) = min(d, L - d),
//    receive-two vs receive-all legality, merge completion in time,
//    and the exact total cost / peak bandwidth. It is the one home of
//    receiving programs (`client_program`) and playback checks, for
//    slot-aligned plans as much as continuous ones.
//
// Units are whatever the producer used: slots for the delay-guaranteed
// substrate (media length L, integer starts), normalized media lengths
// for the simulation engine (media length 1.0). All formulas depend
// only on differences, so the verifier never needs to know.
#ifndef SMERGE_CORE_PLAN_H
#define SMERGE_CORE_PLAN_H

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/model.h"
#include "fib/fibonacci.h"

namespace smerge::plan {

class PlanBuilder;

/// Progressive segment-timeline (chunk) description for a plan's media.
/// Chunks are consecutive media intervals: the first is `base` long and
/// each successive chunk grows by `growth` until it reaches the steady
/// `cap` (SNIPPETS 1-2: small fast-start chunks, larger steady chunks).
/// Playback begins only once the first `min_start_chunks` chunks are
/// fully buffered — the minimum-2-chunk start rule. That buffer is also
/// what makes the steady state safe: a steady chunk no larger than the
/// start buffer always completes before its playback deadline whenever
/// reception keeps up at unit rate, so the default `cap` (0) derives
/// exactly that bound. A larger explicit cap is accepted but the
/// verifier will flag the resulting deadline misses.
struct ChunkingConfig {
  double base = 0.0;           ///< first-chunk duration; 0 disables chunking
  double growth = 2.0;         ///< successive-chunk ratio until the cap
  double cap = 0.0;            ///< steady-state duration; 0 = start-buffer size
  Index min_start_chunks = 2;  ///< chunks buffered before playback starts

  [[nodiscard]] bool enabled() const noexcept { return base > 0.0; }
};

/// Validates a chunking config against a media length; throws
/// std::invalid_argument with the offending field on failure.
void validate(const ChunkingConfig& config, double media_length);

/// The effective steady-state chunk duration (resolves the 0 = derived
/// default). Requires a validated config.
[[nodiscard]] double steady_chunk(const ChunkingConfig& config);

/// Cumulative chunk end positions over (0, media_length]: chunk k
/// covers (ends[k-1], ends[k]] (with ends[-1] = 0); the last end is
/// exactly media_length. Empty when chunking is disabled.
[[nodiscard]] std::vector<double> chunk_ends(const ChunkingConfig& config,
                                             double media_length);

/// One in-place repair applied to a stream's transmission: its end
/// moved from `old_end` to `new_end` — a retraction when the end moves
/// earlier (departures), a re-extension when a seek re-roots the
/// subtree and the new root must carry the full media.
struct StreamEdit {
  Index stream = -1;
  double old_end = 0.0;
  double new_end = 0.0;
  bool reroot = false;  ///< the stream was also detached from its parent

  friend bool operator==(const StreamEdit&, const StreamEdit&) = default;
};

/// The flat, arena-backed merge-plan IR. Immutable once built (use
/// `PlanBuilder`); movable but deliberately not copyable — plans can be
/// large and every consumer reads through `std::span` views.
class MergePlan {
 public:
  /// An empty plan (0 streams, media length 1).
  MergePlan() = default;
  MergePlan(MergePlan&&) noexcept = default;
  MergePlan& operator=(MergePlan&&) noexcept = default;
  MergePlan(const MergePlan&) = delete;
  MergePlan& operator=(const MergePlan&) = delete;

  /// Number of streams.
  [[nodiscard]] Index size() const noexcept { return n_; }
  /// Media length L in the producer's time unit.
  [[nodiscard]] double media_length() const noexcept { return media_length_; }
  /// Reception model the lengths were derived/validated under.
  [[nodiscard]] Model model() const noexcept { return model_; }
  /// Number of roots (full streams).
  [[nodiscard]] Index num_roots() const noexcept { return roots_; }
  /// The segment timeline the media is cut into (disabled by default;
  /// the unit-rate continuous checks are the degenerate case).
  [[nodiscard]] const ChunkingConfig& chunking() const noexcept {
    return chunking_;
  }
  /// True when a segment timeline is attached.
  [[nodiscard]] bool chunked() const noexcept { return chunking_.enabled(); }
  /// Cumulative chunk end positions (empty when not chunked).
  [[nodiscard]] std::span<const double> chunk_ends() const noexcept {
    return {chunk_ends_.data(), chunk_ends_.size()};
  }

  /// Transmission start time of each stream (nondecreasing in id).
  [[nodiscard]] std::span<const double> start() const noexcept {
    return {start_, un()};
  }
  /// Start-up delay attributed to each stream: the largest wait of any
  /// client it serves (0 for purely off-line plans, where clients start
  /// playback at their arrival instant).
  [[nodiscard]] std::span<const double> delay() const noexcept {
    return {delay_, un()};
  }
  /// Transmission duration of each stream.
  [[nodiscard]] std::span<const double> length() const noexcept {
    return {length_, un()};
  }
  /// Merge completion time: for a non-root x with parent p and last
  /// subtree arrival z, the instant its subtree has fully caught up
  /// with p — 2 z - p in the receive-two model, x + (z - p) in
  /// receive-all. For roots, the end of transmission.
  [[nodiscard]] std::span<const double> merge_time() const noexcept {
    return {merge_time_, un()};
  }
  /// Parent stream id (-1 for roots, always < the stream's own id).
  [[nodiscard]] std::span<const Index> parent() const noexcept {
    return {parent_, un()};
  }
  /// Children of `id`, ascending (a CSR range into one shared array).
  [[nodiscard]] std::span<const Index> children(Index id) const;

  /// End of transmission of stream `id`.
  [[nodiscard]] double end(Index id) const {
    return start_[check(id)] + length_[static_cast<std::size_t>(id)];
  }
  /// Root path x_0 < x_1 < ... < x_k = id (stream ids).
  [[nodiscard]] std::vector<Index> root_path(Index id) const;

  /// Total transmitted time-units: one flat pass over `length`. The
  /// continuous analogue of Fcost; equals the slotted full cost for
  /// slot-unit plans.
  [[nodiscard]] double total_cost() const noexcept;

  /// Peak number of simultaneously transmitting streams. Starts are
  /// already sorted, so only the ends sort: O(n log n) with one
  /// double-array sort, no event materialization. Ends count before
  /// starts at equal times (back-to-back streams can share a channel).
  [[nodiscard]] Index peak_bandwidth() const;

 private:
  friend class PlanBuilder;
  [[nodiscard]] std::size_t un() const noexcept {
    return static_cast<std::size_t>(n_);
  }
  [[nodiscard]] std::size_t check(Index id) const;

  double media_length_ = 1.0;
  Model model_ = Model::kReceiveTwo;
  ChunkingConfig chunking_;           ///< disabled unless the builder set one
  std::vector<double> chunk_ends_;    ///< cumulative ends; empty = unchunked
  Index n_ = 0;
  Index roots_ = 0;
  // The arena: one block per element type (doubles / Index), carved
  // into the parallel arrays below. Two allocations for the whole plan.
  std::unique_ptr<double[]> doubles_;
  std::unique_ptr<Index[]> indices_;
  double* start_ = nullptr;
  double* delay_ = nullptr;
  double* length_ = nullptr;
  double* merge_time_ = nullptr;
  Index* parent_ = nullptr;
  Index* child_offset_ = nullptr;  ///< n+1 CSR offsets
  Index* child_ = nullptr;         ///< n - roots child ids
};

/// Append-only construction of a MergePlan. Producers that know their
/// Lemma-1/Lemma-17 structure call the two-argument `add_stream` and
/// let `build` derive lengths; producers with explicit truncations (the
/// on-line policies, whose last block clips at the horizon only in
/// spirit) pass lengths directly.
class PlanBuilder {
 public:
  /// Throws std::invalid_argument unless media_length > 0.
  explicit PlanBuilder(double media_length, Model model = Model::kReceiveTwo);

  /// Appends a stream; returns its id. Length is derived at build():
  /// L for roots, the Lemma-1 (receive-two) or Lemma-17 (receive-all)
  /// truncation otherwise. Throws std::invalid_argument when `start`
  /// precedes the previous stream or `parent` is not an earlier-starting
  /// already-added stream (or -1).
  Index add_stream(double start, Index parent);

  /// As above with an explicit transmission duration (>= 0).
  Index add_stream(double start, Index parent, double length);

  /// Attaches a segment timeline to the plan under construction (and to
  /// every later `build` — the setting persists like the media length).
  /// Throws std::invalid_argument on an invalid config.
  void set_chunking(const ChunkingConfig& chunking);

  /// Records a client wait served by stream `id`; the stream's `delay`
  /// becomes the max over all recorded waits (default 0).
  void record_wait(Index id, double wait);

  /// Streams added so far.
  [[nodiscard]] Index size() const noexcept {
    return static_cast<Index>(start_.size());
  }

  /// Finalizes into the arena-backed plan: builds the CSR children
  /// ranges, computes subtree last-arrivals in one reverse pass,
  /// derives pending lengths and merge times. The builder is left
  /// empty and reusable.
  [[nodiscard]] MergePlan build();

 private:
  double media_length_;
  Model model_;
  ChunkingConfig chunking_;
  std::vector<double> start_;
  std::vector<double> delay_;
  std::vector<double> length_;  ///< NaN = derive from the model at build()
  std::vector<Index> parent_;
};

/// The invariant a diagnostic refers to.
enum class Invariant {
  kStructure,       ///< ids / parents / lengths / delays well-formed
  kMergeTime,       ///< merge_time disagrees with the Lemma geometry
  kPlayback,        ///< continuous-playback partition broken
  kModelLegality,   ///< too many concurrent reads for the model
  kBufferBound,     ///< Section-3.3 buffer bound exceeded
  kChunkStartRule,  ///< start-buffer fill exceeded its >= 2-chunk budget
  kChunkDeadline,   ///< a steady chunk completed after its playback deadline
  kChunkBuffer,     ///< chunk-granular buffer bound exceeded
};

/// Human-readable invariant name.
[[nodiscard]] const char* to_string(Invariant invariant) noexcept;

/// One structured verification failure: which node, which invariant,
/// observed vs expected — the machine-readable form of the verifier's
/// legacy one-line message (kept verbatim in `message`).
struct PlanDiagnostic {
  Invariant invariant = Invariant::kStructure;
  Index stream = -1;      ///< offending stream / client id; -1 = plan-wide
  double observed = 0.0;  ///< measured quantity (0 when not numeric)
  double expected = 0.0;  ///< the bound / expected value it violated
  std::string message;    ///< rendered one-liner ("client N: ...")
};

/// Outcome of `verify`: structured diagnostics (capped; the first one's
/// message doubles as `first_error` for legacy consumers) plus the
/// exact aggregate quantities every legacy walk used to compute
/// separately.
struct PlanReport {
  bool ok = true;
  std::string first_error;     ///< empty when ok
  std::vector<PlanDiagnostic> diagnostics;  ///< all failures, capped at 64
  Index clients = 0;           ///< clients checked (= active streams)
  Index max_concurrent = 0;    ///< peak streams any client reads at once
  double peak_buffer = 0.0;    ///< largest measured client buffer
  double buffer_bound = 0.0;   ///< largest Lemma-15 bound min(d, L-d)
  double max_delay = 0.0;      ///< largest per-stream start-up delay
  double total_cost = 0.0;     ///< sum of transmitted durations
  Index peak_bandwidth = 0;    ///< peak simultaneous streams
  double max_chunk_startup = 0.0;   ///< largest chunk-granular startup lag
  double chunk_peak_buffer = 0.0;   ///< largest whole-chunk buffer backlog
};

/// Options for `verify` beyond the model. The active mask supports
/// repaired plans (core/plan_repair): departed clients' streams stay in
/// the structure (their transmitted prefix is history) but no longer
/// have a viewer, so per-client playback checks apply to active streams
/// only. Structural checks always cover every stream.
struct VerifyOptions {
  /// Per-stream activity flags (size() entries, nonzero = a client is
  /// still watching). Empty = every stream has an active client.
  std::span<const std::uint8_t> active{};
};

/// The universal verifier. Checks, for the client arriving at every
/// stream's start:
///   1. structure: id order follows start order, parents start strictly
///      earlier, lengths lie in [0, L], delays are nonnegative;
///   2. continuous playback: the receiving-program pieces partition
///      (0, L], every piece lies within its source stream's transmitted
///      duration, and reception never trails playback;
///   3. model legality: at most two concurrent reads under receive-two
///      (receive-all may read the whole root path);
///   4. the Section-3.3 buffer bound: measured peak buffer is at most
///      min(d, L - d) under receive-two (Lemma 15), d under
///      receive-all, where d is the client's distance from its root;
///   5. IR integrity: merge_time matches the plan's own Lemma-1 /
///      Lemma-17 geometry;
/// and reports the exact total cost and peak bandwidth computed in one
/// flat pass over the arrays. When the plan carries a segment timeline,
/// each client is additionally checked at chunk granularity: the
/// minimum-start-buffer rule (playback may not lag the arrival by more
/// than the start buffer), every steady chunk's completion against its
/// playback deadline, and the whole-chunk buffer backlog against the
/// continuous bound plus the start buffer. Aggregate work is O(n log n)
/// plus the per-client programs (O(depth^2 + chunks) each).
[[nodiscard]] PlanReport verify(const MergePlan& plan, Model model,
                                const VerifyOptions& options);

/// Verifies with every client active.
[[nodiscard]] inline PlanReport verify(const MergePlan& plan, Model model) {
  return verify(plan, model, VerifyOptions{});
}

/// Verifies under the model the plan was built with.
[[nodiscard]] inline PlanReport verify(const MergePlan& plan) {
  return verify(plan, plan.model());
}

/// Per-client verification outcome (one stream's client).
struct ClientReport {
  Index client = -1;
  bool ok = true;
  std::string error;         ///< first violated invariant, "client N: ..."
  std::vector<PlanDiagnostic> diagnostics;  ///< every violated invariant
  Index max_concurrent = 0;  ///< peak simultaneous stream reads
  double peak_buffer = 0.0;  ///< peak buffered media (time units)
  double buffer_bound = 0.0; ///< the Section-3.3 bound for this client
  double chunk_startup = 0.0;      ///< chunk-granular startup lag (chunked)
  double chunk_peak_buffer = 0.0;  ///< whole-chunk buffer backlog (chunked)
};

/// Verifies invariants 2-4 for the single client arriving at stream
/// `client`'s start. Throws std::out_of_range on a bad id.
[[nodiscard]] ClientReport verify_client(const MergePlan& plan, Index client,
                                         Model model);

/// One piece of a client's continuous receiving program: media
/// positions (from, to] taken from `stream`, received over the time
/// window [start(stream) + from, start(stream) + to].
struct Piece {
  Index stream = -1;
  double from = 0.0;
  double to = 0.0;
};

/// The continuous receiving program of the client arriving at stream
/// `client`'s start (Section 2's stage rules / Lemma 17, in continuous
/// time). Empty pieces are dropped. Throws std::out_of_range on a bad
/// id.
[[nodiscard]] std::vector<Piece> client_program(const MergePlan& plan,
                                                Index client, Model model);

/// Serializes a plan as a `smerge-plan-v2` JSON document (field arrays,
/// the segment timeline, any repair events, plus the verifier's
/// aggregate report with structured diagnostics) — the dump format
/// `tools/plan_dump.py` pretty-prints. `repairs` lists the in-place
/// edits that produced the plan (empty for pristine plans); `active`
/// marks which streams still have viewers (empty = all) and is the mask
/// the embedded verify runs under.
[[nodiscard]] std::string to_json(const MergePlan& plan,
                                  std::span<const StreamEdit> repairs = {},
                                  std::span<const std::uint8_t> active = {});

}  // namespace smerge::plan

#endif  // SMERGE_CORE_PLAN_H

// Discrete-event simulator core.
//
// A single-threaded event loop over simulated time. Events scheduled for the
// same instant fire in scheduling order (a monotonically increasing sequence
// number breaks ties), which keeps runs deterministic.
//
// Protocol state machines interact with the simulator through two verbs:
//   schedule(delay, fn)  — run fn after a relative delay
//   at(time, fn)         — run fn at an absolute time
// Both return a `Timer` handle that can cancel the event (needed for
// retransmission timers that are disarmed by an ACK).
//
// Hot-path layout: events live in a slab of pooled slots (recycled through a
// free list, generation-counted so stale `Timer` handles can never touch a
// reused slot), the priority queue holds small (time, seq, slot) records,
// and callbacks are small-buffer-optimized `EventFn`s — zero heap
// allocations per event once the slab is warm. Cancellation is lazy:
// cancelled entries stay queued until popped, but when more than half of the
// queue is dead (retransmission timers disarmed by ACKs) a compaction sweep
// drops them and re-heapifies, keeping pop cost proportional to live events.
// schedule/at are templates so the callable's erasure ops are still known
// constants where they inline — the compiler flattens the capture move into
// the slot instead of bouncing through function pointers.
//
// Monotone lanes: a stream of events pushed in non-decreasing time order
// (pre-generated arrivals, fixed-delay client timeouts) need not pay for a
// slab slot, an EventFn and a heap sift each. add_lane() registers one
// dispatch function plus a context pointer; lane_push() appends a
// (time, seq, u64 payload) record to the lane's FIFO ring and returns a
// LaneTicket that cancels it in O(1). Lane records draw their sequence
// number from the same counter at() uses, and the loop fires the smallest
// (time, seq) across the heap top and every lane head — so moving an event
// stream from at() onto a lane leaves the fired order, events_executed()
// and event_stream_digest() exactly as they were. A cancelled record is
// skipped silently (never executed, digested or counted pending), exactly
// like a cancelled Timer. Cancelled records are dropped from a lane's head
// as soon as the loop looks at it and the ring slots behind the head are
// reused, so a lane holds only the window from its oldest live record to
// its newest push. A simulator that registers no lane runs the plain heap
// loop behind one branch.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event_fn.h"
#include "util/types.h"

namespace doxlab::sim {

class Simulator;

namespace detail {

/// The slab + queue state. Owned jointly by the Simulator and any Timer
/// handles (via CorePtr below) so handles stay valid — and simply report
/// disarmed — after the Simulator dies.
struct SimCore {
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
  /// Compaction only kicks in past this queue size: tiny queues are cheap
  /// to skip through and re-heapifying them would dominate.
  static constexpr std::size_t kCompactionMinEntries = 64;

  /// One pooled event record. `gen` increments every time the slot is
  /// released, invalidating outstanding Timer handles.
  struct Slot {
    EventFn fn;
    std::uint32_t gen = 0;
    std::uint32_t next_free = kNoSlot;
    bool in_use = false;
    bool cancelled = false;
  };

  /// Priority-queue record; `slot` points into the slab.
  struct QueueEntry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  /// Max-heap comparator whose "largest" element fires first: earliest
  /// time, then lowest sequence number.
  struct Later {
    bool operator()(const QueueEntry& a, const QueueEntry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::vector<Slot> slots;
  std::vector<QueueEntry> heap;
  std::uint32_t free_head = kNoSlot;
  std::uint64_t next_seq = 0;
  std::size_t live = 0;   // queued and not cancelled
  std::size_t dead = 0;   // cancelled entries still sitting in `heap`
  std::uint64_t compactions = 0;

  std::uint32_t acquire() {
    if (free_head != kNoSlot) {
      const std::uint32_t idx = free_head;
      free_head = slots[idx].next_free;
      slots[idx].in_use = true;
      return idx;
    }
    slots.emplace_back();
    slots.back().in_use = true;
    return static_cast<std::uint32_t>(slots.size() - 1);
  }

  void release(std::uint32_t idx) {
    Slot& s = slots[idx];
    s.fn.reset();
    ++s.gen;
    s.in_use = false;
    s.cancelled = false;
    s.next_free = free_head;
    free_head = idx;
  }

  void push(SimTime time, std::uint32_t slot) {
    heap.push_back(QueueEntry{time, next_seq++, slot});
    std::push_heap(heap.begin(), heap.end(), Later{});
  }

  QueueEntry pop() {
    std::pop_heap(heap.begin(), heap.end(), Later{});
    const QueueEntry entry = heap.back();
    heap.pop_back();
    return entry;
  }

  bool cancel(std::uint32_t idx, std::uint32_t gen);
  bool armed(std::uint32_t idx, std::uint32_t gen) const;
  void maybe_compact();

  std::uint32_t refs = 0;  // managed by CorePtr
};

/// Intrusive, deliberately non-atomic refcounted pointer to SimCore. A
/// simulator and all of its Timer handles live on one thread (parallel
/// campaigns give each task its own simulator), so the count needs no
/// synchronization — which keeps Timer construction on the schedule hot
/// path free of locked instructions (a shared_ptr copy costs two once any
/// thread exists in the process).
class CorePtr {
 public:
  CorePtr() = default;
  explicit CorePtr(SimCore* core) : core_(core) {
    if (core_ != nullptr) ++core_->refs;
  }
  CorePtr(const CorePtr& other) : core_(other.core_) {
    if (core_ != nullptr) ++core_->refs;
  }
  CorePtr(CorePtr&& other) noexcept : core_(other.core_) {
    other.core_ = nullptr;
  }
  CorePtr& operator=(CorePtr other) noexcept {
    std::swap(core_, other.core_);
    return *this;
  }
  ~CorePtr() {
    if (core_ != nullptr && --core_->refs == 0) delete core_;
  }

  SimCore& operator*() const { return *core_; }
  SimCore* operator->() const { return core_; }
  explicit operator bool() const { return core_ != nullptr; }

 private:
  SimCore* core_ = nullptr;
};

}  // namespace detail

/// Cancellation handle for a scheduled event. Copyable; all copies refer to
/// the same underlying event. Cancelling an already-fired event is a no-op.
/// Handles keep the slab alive (like the seed's shared state block) so they
/// stay safe to poke even after the Simulator is destroyed.
class Timer {
 public:
  Timer() = default;

  /// Prevents the event from firing. Safe to call multiple times.
  void cancel();

  /// True if the event has neither fired nor been cancelled.
  bool armed() const;

 private:
  friend class Simulator;
  Timer(const detail::CorePtr& core, std::uint32_t slot, std::uint32_t gen)
      : core_(core), slot_(slot), gen_(gen) {}

  detail::CorePtr core_;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

/// A lane's dispatch function: called with the lane's context pointer and
/// the fired record's payload.
using LaneHandler = void (*)(void* context, std::uint64_t payload);

/// Cancellation handle for one lane record (see Simulator::lane_push). A
/// plain value: cancelling through it after the record fired, or twice, is
/// a no-op. A default-constructed ticket refers to no record.
struct LaneTicket {
  std::uint64_t position = ~std::uint64_t{0};  ///< absolute index in lane
  std::uint32_t lane = 0;
};

namespace detail {

/// One monotone lane: a FIFO ring of (time, seq, payload) records indexed
/// by absolute position (position & mask), so tickets stay valid while
/// the ring grows and slots behind the head are reused.
struct Lane {
  struct Record {
    SimTime time;
    std::uint64_t seq;  ///< kCancelled once cancelled
    std::uint64_t payload;
  };
  static constexpr std::uint64_t kCancelled = ~std::uint64_t{0};

  LaneHandler handler = nullptr;
  void* context = nullptr;
  std::vector<Record> ring;  ///< power-of-two size (or empty)
  std::uint64_t head = 0;    ///< position of the oldest queued record
  std::uint64_t tail = 0;    ///< position the next push takes
  SimTime last_time = 0;     ///< time of the newest push (monotone bound)

  Record& at(std::uint64_t position) {
    return ring[position & (ring.size() - 1)];
  }

  /// The oldest live record, dropping cancelled ones from the head on the
  /// way; nullptr if none is queued.
  Record* front() {
    while (head != tail) {
      Record& record = at(head);
      if (record.seq != kCancelled) return &record;
      ++head;
    }
    return nullptr;
  }

  /// Doubles the ring, re-slotting the queued window by absolute position.
  void grow() {
    std::vector<Record> next(ring.empty() ? 16 : ring.size() * 2);
    for (std::uint64_t p = head; p != tail; ++p) {
      next[p & (next.size() - 1)] = at(p);
    }
    ring.swap(next);
  }
};

}  // namespace detail

/// The event loop. One instance drives one experiment.
class Simulator {
 public:
  Simulator() : core_(new detail::SimCore) {}
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Destroys every still-queued closure. Closures routinely capture Timer
  /// handles (retransmission timers owned by the objects they fire on), and
  /// a Timer keeps the slab alive — leaving the closures in place would
  /// cycle and leak their object graphs. Slot metadata survives so
  /// outstanding handles still answer armed()/cancel() safely.
  ~Simulator() {
    for (detail::SimCore::Slot& slot : core_->slots) slot.fn.reset();
  }

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Schedules `fn` to run `delay` from now. Negative delays clamp to zero.
  template <typename F>
  Timer schedule(SimTime delay, F&& fn) {
    if (delay < 0) delay = 0;
    return at(now_ + delay, std::forward<F>(fn));
  }

  /// Schedules `fn` at an absolute time (clamped to be >= now()).
  template <typename F>
  Timer at(SimTime time, F&& fn) {
    if (time < now_) time = now_;
    detail::SimCore& core = *core_;
    const std::uint32_t idx = core.acquire();
    detail::SimCore::Slot& slot = core.slots[idx];
    // Construct the capture directly into the slab slot; where this
    // inlines, the erasure ops are compile-time constants and the store is
    // a plain copy of the capture bytes.
    try {
      slot.fn.emplace(std::forward<F>(fn));
    } catch (...) {
      core.release(idx);
      throw;
    }
    core.push(time, idx);
    ++core.live;
    return Timer(core_, idx, slot.gen);
  }

  /// Registers a monotone lane whose records all fire through
  /// `handler(context, payload)`, and returns its id. Registering consumes
  /// no sequence number. `reserve` pre-sizes the ring for that many queued
  /// records (a lane filled up front need not regrow).
  std::uint32_t add_lane(LaneHandler handler, void* context,
                         std::size_t reserve = 0) {
    detail::Lane& lane = lanes_.emplace_back();
    lane.handler = handler;
    lane.context = context;
    if (reserve > 0) lane.ring.resize(std::bit_ceil(reserve));
    return static_cast<std::uint32_t>(lanes_.size() - 1);
  }

  /// Appends a record to `lane` at absolute `time` (clamped to be >= now()),
  /// taking the next sequence number exactly as at() would. Times must be
  /// non-decreasing per lane: a push earlier than the lane's newest record
  /// throws std::invalid_argument rather than firing out of order.
  LaneTicket lane_push(std::uint32_t lane_id, SimTime time,
                       std::uint64_t payload) {
    detail::Lane& lane = lanes_[lane_id];
    if (time < now_) time = now_;
    if (time < lane.last_time) {
      throw std::invalid_argument(
          "sim lane push earlier than the lane's newest record");
    }
    if (lane.tail - lane.head == lane.ring.size()) lane.grow();
    lane.at(lane.tail) =
        detail::Lane::Record{time, core_->next_seq++, payload};
    lane.last_time = time;
    ++lane_live_;
    return LaneTicket{lane.tail++, lane_id};
  }

  /// Cancels a queued lane record. Returns false if the ticket's record
  /// already fired or was already cancelled.
  bool lane_cancel(LaneTicket ticket) {
    if (ticket.lane >= lanes_.size()) return false;
    detail::Lane& lane = lanes_[ticket.lane];
    if (ticket.position < lane.head || ticket.position >= lane.tail) {
      return false;
    }
    detail::Lane::Record& record = lane.at(ticket.position);
    if (record.seq == detail::Lane::kCancelled) return false;
    record.seq = detail::Lane::kCancelled;
    --lane_live_;
    return true;
  }

  /// Ring slots currently allocated for `lane` (storage-bound test hook).
  std::size_t lane_capacity(std::uint32_t lane_id) const {
    return lanes_[lane_id].ring.size();
  }

  /// Runs until the event queue is empty.
  void run() {
    while (step_before(kSimTimeNever)) {
    }
  }

  /// Runs events with time <= `deadline`; leaves later events queued and
  /// advances the clock to `deadline`.
  void run_until(SimTime deadline) {
    while (step_before(deadline)) {
    }
    if (now_ < deadline) now_ = deadline;
  }

  /// Runs at most one event. Returns false if the queue was empty.
  bool step() { return step_before(kSimTimeNever); }

  /// Number of events executed since construction.
  std::uint64_t events_executed() const { return executed_; }

  /// Order-sensitive digest of the executed event stream: every fired
  /// event folds its (time, sequence-number) pair into a 64-bit mix. Two
  /// runs that execute the same events at the same simulated times in the
  /// same order — and only those — agree on the digest, which is what the
  /// sharded-engine determinism tests pin: a shard's stream must be a pure
  /// function of its seed, never of wall-clock interleaving with other
  /// shards.
  std::uint64_t event_stream_digest() const { return stream_digest_; }

  /// Number of live (not cancelled) pending events, lane records included.
  std::size_t pending() const { return core_->live + lane_live_; }

  /// Queue entries including lazily-cancelled ones (compaction test hook).
  std::size_t queued_entries() const { return core_->heap.size(); }

  /// Number of lazy-cancel compaction sweeps performed (test hook).
  std::uint64_t compactions() const { return core_->compactions; }

 private:
  /// Pops and runs the earliest live event — heap top or lane head, by
  /// (time, seq) — if its time is <= `deadline` (skipping and reclaiming
  /// cancelled entries on the way). Returns false if nothing fired. Shared
  /// by step(), run() and run_until().
  bool step_before(SimTime deadline) {
    if (!lanes_.empty()) {
      if (detail::Lane* lane = earliest_lane()) {
        return fire_lane(*lane, deadline);
      }
    }
    detail::SimCore& core = *core_;
    while (!core.heap.empty()) {
      const detail::SimCore::QueueEntry& top = core.heap.front();
      if (core.slots[top.slot].cancelled) {
        const auto entry = core.pop();
        core.release(entry.slot);
        --core.dead;
        continue;
      }
      if (top.time > deadline) return false;
      const auto entry = core.pop();
      // Move the closure out and free the slot *before* invoking so that
      // re-entrant scheduling from within the callback sees a consistent
      // slab (and cancelling the running event's own Timer is a no-op).
      EventFn fn = std::move(core.slots[entry.slot].fn);
      core.release(entry.slot);
      --core.live;
      record_fired(entry.time, entry.seq);
      fn.invoke_consume();
      return true;
    }
    return false;
  }

  /// The lane whose head fires before the heap's first live entry, or
  /// nullptr if that entry is first or nothing is queued on a lane.
  /// Cancelled entries are dropped from the heap top on the way.
  detail::Lane* earliest_lane() {
    detail::SimCore& core = *core_;
    while (!core.heap.empty() &&
           core.slots[core.heap.front().slot].cancelled) {
      const auto entry = core.pop();
      core.release(entry.slot);
      --core.dead;
    }
    detail::Lane* best = nullptr;
    const detail::Lane::Record* best_record = nullptr;
    for (detail::Lane& lane : lanes_) {
      const detail::Lane::Record* record = lane.front();
      if (record != nullptr &&
          (best_record == nullptr || fires_before(*record, *best_record))) {
        best = &lane;
        best_record = record;
      }
    }
    if (best_record == nullptr || core.heap.empty()) return best;
    const detail::SimCore::QueueEntry& top = core.heap.front();
    const bool lane_first =
        best_record->time != top.time ? best_record->time < top.time
                                      : best_record->seq < top.seq;
    return lane_first ? best : nullptr;
  }

  static bool fires_before(const detail::Lane::Record& a,
                           const detail::Lane::Record& b) {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  }

  /// Fires `lane`'s (live) head record if it is due by `deadline`. The
  /// record is copied out and the head advanced before the handler runs,
  /// so the handler may push onto (and grow) any lane.
  bool fire_lane(detail::Lane& lane, SimTime deadline) {
    const detail::Lane::Record record = lane.at(lane.head);
    if (record.time > deadline) return false;
    ++lane.head;
    --lane_live_;
    record_fired(record.time, record.seq);
    lane.handler(lane.context, record.payload);
    return true;
  }

  /// Advances the clock to a fired event and folds it into the counters.
  void record_fired(SimTime time, std::uint64_t seq) {
    now_ = time;
    ++executed_;
    // Two multiplies and a xor per event: noise next to the heap pop,
    // and it buys a run-to-run fingerprint of the whole schedule.
    stream_digest_ ^=
        static_cast<std::uint64_t>(time) + 0x9E3779B97F4A7C15ull * (seq + 1);
    stream_digest_ *= 0xBF58476D1CE4E5B9ull;
  }

  SimTime now_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t stream_digest_ = 0x6A09E667F3BCC909ull;  // sqrt(2) seed
  detail::CorePtr core_;
  std::vector<detail::Lane> lanes_;
  std::size_t lane_live_ = 0;  // queued, not cancelled lane records
};

}  // namespace doxlab::sim

#pragma once

// Backpressure layer (ROADMAP direction 4): overload as a first-class
// regime of the conductor + placement service instead of a scatter of
// per-path patches.
//
// When admission fails, a request enters one of three explicit modes:
//
//   degrade  immediate NoValidHost — exactly today's behavior.  The
//            all-zero config is fully inert: no controller is built, no
//            events fire, runs reproduce byte-for-byte.
//   queue    the request waits in a bounded deadline queue; the engine
//            drains it at capacity-release events (deletions, crash
//            repairs, migrations).  An entry whose deadline passes is
//            shed with an explicit reason.
//   shed     like queue, but when the queue is full a strictly
//            higher-priority newcomer (HA restarts over pack over
//            spread) evicts the lowest-priority latest-enqueued entry
//            instead of being rejected itself.
//
// Ground rules (Continuity RFC 0001/0002): bounded queue cost (the
// deque never exceeds queue_capacity), stable regime transitions (the
// queuing/shedding control state is re-evaluated only at scrape
// barriers, with enter-at-full / exit-at-half hysteresis — so
// consecutive transitions are always at least one sampling interval
// apart), and no silent blackholes — every request that ever entered
// the conductor terminates in exactly one of {placed,
// schedule_fail-with-reason, shed-with-reason}, enforced by the
// no_blackhole invariant checker (src/harness/invariants.hpp).

#include <cstdint>
#include <deque>
#include <optional>
#include <string_view>
#include <vector>

#include "infra/ids.hpp"
#include "simcore/time.hpp"

namespace sci {

enum class backpressure_mode : std::uint8_t {
    degrade,  ///< immediate NoValidHost (pre-backpressure behavior)
    queue,    ///< bounded deadline queue drained at capacity releases
    shed,     ///< queue + priority eviction when full
};

std::string_view to_string(backpressure_mode m);
std::optional<backpressure_mode> backpressure_mode_from(std::string_view token);

struct backpressure_config {
    backpressure_mode mode = backpressure_mode::degrade;
    /// Hard bound on queued requests (must be > 0 when mode != degrade).
    std::uint32_t queue_capacity = 0;
    /// Time a request may wait before it is shed (deadline = enqueue
    /// time + queue_deadline; must be > 0 when mode != degrade).
    sim_duration queue_deadline = 0;

    bool active() const { return mode != backpressure_mode::degrade; }

    /// `mode` with a default queue for runs that set no queue of their own:
    /// 256 requests, one-hour deadline (left empty in degrade mode).
    static backpressure_config with_default_queue(backpressure_mode mode) {
        backpressure_config config{mode};
        if (config.active()) {
            config.queue_capacity = 256;
            config.queue_deadline = hours(1);
        }
        return config;
    }
};

/// What kind of request is waiting (decides the lifecycle event recorded
/// when it finally places).
enum class bp_request_kind : std::uint8_t {
    create,      ///< churn arrival that hit NoValidHost
    ha_restart,  ///< HA victim whose restart-attempt budget ran out
};

/// One queued admission request.  Deadlines are enqueue time plus the
/// configured queue_deadline, so FIFO order is deadline order and
/// expiry pops from the front.
struct bp_queued_request {
    vm_id vm;
    bp_request_kind kind = bp_request_kind::create;
    /// Shed-mode eviction priority: ha_restart (2) > pack (1) > spread (0).
    std::int32_t priority = 0;
    sim_time enqueued_at = 0;
    sim_time deadline = 0;
    /// Planned deletion of a churn arrival (the event is only scheduled
    /// once the VM places); no_deletion when none.
    sim_time deleted_at = no_deletion;

    static constexpr sim_time no_deletion = -1;
};

/// Scrape-sampled control state of the queue (telemetry + the
/// backpressure_stability invariant; admission itself is size-driven).
enum class bp_regime : std::uint8_t { queuing, shedding };

std::string_view to_string(bp_regime r);

class backpressure_controller {
public:
    explicit backpressure_controller(backpressure_config config);

    const backpressure_config& config() const { return config_; }
    std::size_t size() const { return queue_.size(); }
    bool empty() const { return queue_.empty(); }
    const bp_queued_request& at(std::size_t i) const { return queue_[i]; }
    void erase(std::size_t i);

    /// Outcome of one admission attempt on the full path.
    struct admit_result {
        enum class outcome : std::uint8_t {
            queued,           ///< request now waits in the queue
            shed_queue_full,  ///< queue full, request rejected outright
        };
        outcome result = outcome::queued;
        /// Shed-mode priority eviction: the entry the newcomer displaced
        /// (the caller must terminate it with a shed event).
        std::optional<bp_queued_request> evicted;
    };

    /// Admit one request.  Never grows the queue past queue_capacity.
    admit_result admit(bp_queued_request request);

    /// Drop the queued entry of `vm` (owner deleted the VM while it was
    /// waiting).  Returns false when nothing was queued for it.
    bool cancel(vm_id vm);

    /// Pop every entry whose deadline has passed, in deadline (= FIFO)
    /// order.  The caller sheds or cancels each one.
    std::vector<bp_queued_request> expire(sim_time t);

    /// Re-evaluate the queuing/shedding regime at a scrape barrier:
    /// enter shedding at size >= capacity, leave at size <= capacity/2
    /// (hysteresis), keep the state in between.  Returns true when the
    /// regime flipped (the transition instant is recorded).  Calling
    /// this only at scrape barriers is what makes transitions stable:
    /// two flips can never be closer than one sampling interval.
    bool update_regime(sim_time t);

    bp_regime regime() const { return regime_; }
    /// Instants of every regime flip, in time order.
    const std::vector<sim_time>& transitions() const { return transitions_; }

    // --- snapshot support -------------------------------------------------
    /// Queued entries front to back — already the canonical order.
    std::vector<bp_queued_request> queue_table() const;
    void restore_state(const std::vector<bp_queued_request>& queue,
                       bp_regime regime, std::vector<sim_time> transitions);

private:
    backpressure_config config_;
    std::deque<bp_queued_request> queue_;
    bp_regime regime_ = bp_regime::queuing;
    std::vector<sim_time> transitions_;
};

}  // namespace sci

#pragma once

// The simulation engine: reproduces the measured system end to end.
//
//   workload generator ──► Nova conductor/scheduler ──► building block
//                                  │                        │
//                                  ▼                        ▼
//                           placement API             DRS cluster (nodes)
//                                                           │
//   contention model ◄── per-VM demand at scrape time ◄─────┘
//        │
//        ▼
//   exporters ──► metric_store (Prometheus/Thanos equivalent)
//
// run() places the initial population (pre-window history), then plays the
// 30-day observation window: scrape events feed the exporters, DRS passes
// rebalance clusters, churn events create/delete VMs, maintenance events
// commission/decommission nodes (the heatmaps' white cells).

#include <array>
#include <concepts>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/field_list.hpp"
#include "core/run_stats.hpp"
#include "core/scenario.hpp"
#include "core/speculation_batch.hpp"
#include "drs/drs.hpp"
#include "drs/migration.hpp"
#include "fault/fault.hpp"
#include "fault/ha.hpp"
#include "hypervisor/node_runtime.hpp"
#include "infra/event_log.hpp"
#include "infra/vm.hpp"
#include "rebalancer/cross_bb.hpp"
#include "sched/backpressure.hpp"
#include "sched/conductor.hpp"
#include "simcore/event_heap.hpp"
#include "simcore/rng.hpp"
#include "simcore/thread_pool.hpp"
#include "telemetry/store.hpp"
#include "workload/behavior.hpp"
#include "workload/population.hpp"

namespace sci {

namespace snapshot {
struct engine_access;  // checkpoint/restore implementation (src/snapshot)
}

/// One pending simulation event, as data.  The engine's event loop is an
/// event_heap<engine_event>: every schedule site enqueues one of these
/// instead of a closure, and sim_engine::dispatch interprets it — which
/// is what makes the complete pending-event set serializable for
/// checkpoint/restore.  `id` carries the target node or VM where the
/// action needs one; `fault` carries the compiled fault event for
/// action::fault.
struct engine_event {
    enum class action : std::uint8_t {
        commission_node,    ///< id = node: set_accepting(true)
        decommission_node,  ///< id = node
        delete_vm,          ///< id = vm
        drain_arrivals,     ///< pinned-slot churn drain
        scrape,             ///< self-rescheduling telemetry scrape
        drs_pass,           ///< self-rescheduling DRS balancing pass
        cross_bb_pass,      ///< self-rescheduling cross-BB rebalance
        resize_vm,          ///< id = vm
        fault,              ///< apply `fault`
        drain_ha_restarts,  ///< drain the due HA victim group
        drain_backpressure, ///< pinned-slot backpressure-queue drain
    };
    action act = action::scrape;
    std::int32_t id = -1;
    fault_event fault{};
};

struct engine_config {
    scenario_config scenario;
    /// Scrape cadence (the paper's telemetry: 30–300 s; default 300 s).
    sim_duration sampling_interval = 300;
    /// DRS balancing pass cadence.
    sim_duration drs_interval = 3600;
    drs_config drs;
    store_config store;
    population_config population;  ///< initial_population overridden by scenario

    // --- policy switches (ablations of DESIGN.md §3) ---------------------
    /// Feed observed BB contention into the scheduler (Section 7 guidance).
    bool contention_aware = false;
    double contention_filter_threshold_pct = 15.0;
    /// Holistic single-layer scheduler: place directly onto nodes,
    /// collapsing the Nova→BB + DRS→node split (Section 7 guidance).
    bool holistic = false;
    /// Lifetime-aware placement: pack short-lived VMs (< 7 days), spread
    /// long-lived ones (Section 7 "workload lifetime ... fragmentation").
    bool lifetime_aware = false;
    /// Fraction of nodes undergoing commission/decommission in-window.
    double node_churn_fraction = 0.03;
    /// Fraction of the population that resizes (grow or shrink to the
    /// neighbouring flavor) per day — the "resize" events of Section 4.
    /// Kept rare: resizes move VMs across the Table 1/2 size classes, and
    /// the published class mix is stable.
    double daily_resize_fraction = 0.0005;
    /// Override the general-purpose vCPU:pCPU allocation ratio (ablation:
    /// overcommit sweep, Section 7 "the overcommit factor should be
    /// reconsidered").
    std::optional<double> gp_cpu_allocation_ratio_override;
    /// Cross-building-block rebalancing pass cadence; 0 disables it (the
    /// paper's "external rebalancers", Section 3.1 / Section 7 guidance).
    sim_duration cross_bb_interval = 0;
    cross_bb_config cross_bb;
    /// Cost model applied to every DRS / cross-BB migration.
    migration_cost_config migration_cost;
    /// Worker threads for the scrape pipeline and the DRS balancing
    /// fan-out.  nullopt reads the SCI_THREADS environment variable; 0
    /// evaluates serially.  Output is bit-identical at any thread count:
    /// demand is sharded by a fixed shard count and reduced in shard
    /// order, all store appends stay serial in VM/node order (see
    /// sim_engine::scrape), and DRS results commit serially in cluster
    /// order (see sim_engine::drs_pass).
    std::optional<unsigned> threads;
    /// Deterministic fault injection (sci::fault).  The default (all
    /// rates zero) is fully inert: no schedule is compiled, no RNG
    /// streams are opened, and runs reproduce byte-for-byte.
    fault_config fault;
    /// Conductor backpressure (sci::backpressure_controller).  The default
    /// (`degrade`, zero capacity/deadline) is fully inert: no controller is
    /// built, no events fire, and runs reproduce byte-for-byte.
    backpressure_config backpressure;

    /// The one list of every field, nested configs included:
    /// fn(config_key, field) with `field` a reference into `c`.  Within a
    /// DSL section the order is the rendered order; snapshots encode the
    /// fields in list order.  A new field is added here and nowhere else.
    /// Deliberately codec only: `threads` (a runtime concern — output is
    /// bit-identical at any worker count), `initial_population` (derived
    /// from scale), and the fleet, DRS, cross-BB, migration-cost and store
    /// tuning that no scenario varies.
    template <typename Self, typename Fn>
        requires std::same_as<std::remove_const_t<Self>, engine_config>
    static constexpr void for_each_field(Self& c, Fn&& fn) {
        using k = config_key;
        constexpr std::string_view engine = "engine";
        constexpr std::string_view fault = "fault";
        constexpr std::string_view bp = "backpressure";
        constexpr bool region = true;  // per_region
        constexpr bool mirror = true;
        const k codec{};

        fn(k{engine, "scale", region}, c.scenario.scale);
        // one seed drives the whole run: fleet construction, population
        // sampling, and the fault schedule
        fn(k{engine, "seed", region}, c.scenario.seed);
        fn(k{engine, "seed", region, mirror}, c.population.seed);
        fn(k{engine, "sampling_interval"}, c.sampling_interval);
        fn(k{engine, "drs_interval"}, c.drs_interval);
        fn(k{engine, "cross_bb_interval"}, c.cross_bb_interval);
        fn(k{engine, "contention_aware"}, c.contention_aware);
        fn(k{engine, "holistic"}, c.holistic);
        fn(k{engine, "lifetime_aware"}, c.lifetime_aware);
        fn(k{engine, "node_churn_fraction"}, c.node_churn_fraction);
        fn(k{engine, "daily_resize_fraction"}, c.daily_resize_fraction);
        fn(k{engine, "daily_churn_fraction", region},
           c.population.daily_churn_fraction);
        fn(k{engine, "project_count"}, c.population.project_count);
        fn(k{engine, "gp_cpu_allocation_ratio"},
           c.gp_cpu_allocation_ratio_override);

        fn(k{fault, "crash_rate_per_day", region},
           c.fault.host_crash_rate_per_day);
        fn(k{fault, "claim_failure_probability"},
           c.fault.claim_failure_probability);
        fn(k{fault, "migration_abort_probability", region},
           c.fault.migration_abort_probability);
        fn(k{fault, "degraded_node_fraction"}, c.fault.degraded_node_fraction);
        fn(k{fault, "degraded_cpu_factor"}, c.fault.degraded_cpu_factor);
        fn(k{fault, "maintenance_windows"}, c.fault.maintenance_windows);
        fn(k{fault, "maintenance_duration"}, c.fault.maintenance_duration);
        fn(k{fault, "az_outages", region}, c.fault.az_outages);
        fn(k{fault, "az_outage_at", region}, c.fault.az_outage_at);
        fn(k{fault, "az_outage_repair_time", region},
           c.fault.az_outage_repair_time);
        fn(k{fault, "ha_restart_delay"}, c.fault.ha_restart_delay);
        fn(k{fault, "ha_retry_backoff"}, c.fault.ha_retry_backoff);
        fn(k{fault, "ha_max_restart_attempts"}, c.fault.ha_max_restart_attempts);
        fn(k{fault, "crash_repair_time"}, c.fault.crash_repair_time);

        fn(k{bp, "mode"}, c.backpressure.mode);
        fn(k{bp, "queue_capacity"}, c.backpressure.queue_capacity);
        fn(k{bp, "queue_deadline"}, c.backpressure.queue_deadline);

        fn(codec, c.scenario.hana_node_fraction);
        fn(codec, c.scenario.dedicated_xl_node_fraction);
        fn(codec, c.scenario.reserve_node_fraction);
        fn(codec, c.drs.imbalance_threshold);
        fn(codec, c.drs.max_migrations_per_pass);
        fn(codec, c.drs.heavy_vm_ram_mib);
        fn(codec, c.drs.min_gain);
        fn(codec, c.drs.cpu_allocation_ratio);
        fn(codec, c.drs.ram_allocation_ratio);
        fn(codec, c.drs.enabled);
        fn(codec, c.drs.pack_memory);
        fn(codec, c.store.days);
        fn(codec, c.store.keep_raw);
        fn(codec, c.population.initial_population);
        fn(codec, c.contention_filter_threshold_pct);
        fn(codec, c.cross_bb.target_ram_spread);
        fn(codec, c.cross_bb.max_moves_per_pass);
        fn(codec, c.cross_bb.heavy_vm_ram_mib);
        fn(codec, c.cross_bb.max_downtime_ms);
        fn(codec, c.cross_bb.cost.bandwidth_mib_per_s);
        fn(codec, c.cross_bb.cost.stop_and_copy_mib);
        fn(codec, c.cross_bb.cost.max_precopy_rounds);
        fn(codec, c.migration_cost.bandwidth_mib_per_s);
        fn(codec, c.migration_cost.stop_and_copy_mib);
        fn(codec, c.migration_cost.max_precopy_rounds);
        fn(codec, c.threads);
    }
};

// A field added to engine_config (or a config nested in it) without a list
// entry fails here instead of silently running default physics or
// dropping out of snapshots.
static_assert(leaf_count<engine_config>() ==
                  listed_field_count<engine_config>(),
              "engine_config::for_each_field must list every field");

/// Optional in-run observation hooks for the invariants harness
/// (sci::harness).  Both unset by default — the engine then behaves
/// exactly as before; in particular the DRS imbalance figures are only
/// computed when a probe asks for them.  Probes observe, they must not
/// mutate: they fire from the serial event loop and both the demand
/// oracle and the imbalance walk are pure, so installing a probe never
/// perturbs the simulation's RNG draws or its deterministic output.
struct engine_probes {
    /// After a scrape's samples were appended, at the scrape instant.
    std::function<void(sim_time)> after_scrape;
    /// Around every DRS balancing pass: fleet-mean cluster imbalance under
    /// the pass's demand snapshot, before planning and after the serial
    /// commits (abort rollbacks included).
    std::function<void(sim_time, double before, double after)> drs_imbalance;
};

class sim_engine {
public:
    /// Build engine with a freshly constructed regional scenario.
    explicit sim_engine(engine_config config);

    /// Build engine over a caller-provided scenario.
    sim_engine(engine_config config, scenario sc);

    /// Place the initial population and play the full observation window.
    void run();

    /// Play only until `until` (for incremental inspection in tests).
    void setup();
    void run_until(sim_time until);

    const metric_store& store() const { return store_; }
    const vm_registry& vms() const { return vms_; }
    const fleet& infrastructure() const { return scenario_.infrastructure; }
    const flavor_catalog& catalog() const { return scenario_.catalog; }
    const scenario& scn() const { return scenario_; }
    const run_stats& stats() const { return stats_; }
    const engine_config& config() const { return config_; }
    const std::vector<drs_cluster>& clusters() const { return clusters_; }
    const placement_service& placement() const { return placement_; }
    const event_log& events() const { return events_; }

    /// Install invariant probes; call before setup()/run().
    void set_probes(engine_probes probes) { probes_ = std::move(probes); }

    /// Whether a node is currently out of service (crashed, in
    /// maintenance, or lost to an AZ outage).  False before setup().
    bool node_is_down(node_id node) const {
        const auto idx = static_cast<std::size_t>(node.value());
        return idx < node_down_.size() && node_down_[idx] != 0;
    }

    /// HA recovery controller; null unless config().fault.enabled().
    const ha_controller* ha() const { return ha_.get(); }
    /// Backpressure controller; null unless config().backpressure.active().
    const backpressure_controller* backpressure() const { return bp_.get(); }
    /// Injected claim races absorbed by the conductor's retry loop.
    std::uint64_t transient_claim_failures() const;
    /// VMs currently active (incrementally maintained; equals the
    /// registry's count_in_state(vm_state::active)).
    std::size_t active_vm_count() const { return active_slots_.size(); }

    /// Stream sealed raw-sample days through `sink` while the simulation
    /// runs: whenever a scrape crosses a day boundary the completed day is
    /// sealed (handed to the sink and freed), and run() seals the final
    /// day on exit.  Keeps raw residency O(compaction horizon) instead of
    /// O(window).  Off by default — without a sink the store behaves
    /// exactly as before (raw stays resident until export).
    void enable_raw_streaming(metric_store::raw_sink sink);

    /// Behavior of a VM (sampled lazily, cached).
    const vm_behavior& behavior_of(vm_id vm);

    /// Instantaneous CPU demand (cores) of a VM at time t.
    double vm_cpu_demand_cores(vm_id vm, sim_time t);

    /// Resolved scrape worker count (config override, else SCI_THREADS).
    unsigned worker_threads() const;

    /// Run all sharded stages on an externally owned pool instead of
    /// creating a private one (multi-region: N engines share one pool, so
    /// region-level tasks and intra-region shards never oversubscribe).
    /// Must be called before setup(); the pool must outlive the engine.
    /// Output is unaffected — sharding is fixed-count by contract.
    void set_shared_pool(thread_pool* pool);

    /// Arrival-time span of every speculated churn batch.
    const std::vector<batch_span>& churn_batches() const {
        return window_batch_.spans();
    }

    /// Span of every speculated HA recovery batch: first = the drain that
    /// opened it, last = the due time of the last victim group it covered.
    const std::vector<batch_span>& recovery_batches() const {
        return recovery_batch_.spans();
    }

    /// True once setup() ran (or the engine was restored from a snapshot).
    bool is_setup() const { return setup_done_; }

    /// Toggle automatic DRS balancing on every cluster (a post-restore
    /// fork mutator).  The balancing events keep firing either way
    /// (plan_rebalance checks the flag), so flipping it never changes the
    /// event/sequence stream and forked arms stay event-for-event
    /// comparable with the base run.
    void set_drs_enabled(bool enabled);

private:
    friend struct snapshot::engine_access;

    /// Interpret one typed event at its fire time.
    void dispatch(const engine_event& event, sim_time t);

    /// One node's mid-window commission/decommission draw.  The plan is a
    /// pure function of (seed, fleet size), so a snapshot restore can
    /// re-apply the fleet mutations without replaying the RNG into any
    /// shared stream.
    struct node_churn_action {
        node_id node;
        bool commission;
        sim_time at;
    };
    std::vector<node_churn_action> plan_node_churn() const;

    void setup_providers();
    void setup_node_churn();
    void build_population();
    void setup_scrape_pipeline();
    void place_initial_population();
    void schedule_window_events();
    void drain_arrivals(sim_time t);

    // --- speculation batches (see core/speculation_batch.hpp) --------------
    schedule_request request_for(vm_id vm) const;
    speculation_batch::source batch_source();
    speculation_batch::stamp batch_stamp() const;

    /// quiet_fail: on admission failure leave the VM's state untouched and
    /// record no schedule_fail event or failure counter — the caller (the
    /// backpressure layer) owns the request's terminal outcome.  Retry
    /// counters still accumulate.
    bool place_vm(vm_id vm, sim_time when,
                  lifecycle_event_kind kind = lifecycle_event_kind::create,
                  const host_speculation* spec = nullptr,
                  std::span<const std::uint64_t> spec_counts = {},
                  bool quiet_fail = false);
    bool place_vm_holistic(vm_id vm, sim_time when, lifecycle_event_kind kind,
                           bool quiet_fail = false);
    void delete_vm(vm_id vm, sim_time when);
    void scrape(sim_time t);
    void drs_pass(sim_time t);
    void cross_bb_pass(sim_time t);
    void decommission_node(node_id node, sim_time t);
    /// Re-place every resident of `node` within its cluster, recording
    /// events of `kind`.  Returns the number of VMs moved (or terminated
    /// when the cluster was fully out of service).
    std::size_t evacuate_node(node_id node, sim_time t,
                              lifecycle_event_kind kind);
    void schedule_resizes();
    void resize_vm(vm_id vm, sim_time t);
    migration_estimate estimate_vm_migration(vm_id vm, sim_time t);
    void account_migration(vm_id vm, sim_time t);
    void open_vm_series(const vm_record& rec);

    // --- fault injection & HA recovery -----------------------------------
    void setup_faults();
    void apply_fault(const fault_event& event, sim_time t);
    void crash_node(node_id node, sim_time t);
    /// Crash every in-service host of one AZ in a single detection epoch.
    void begin_az_outage(az_id az, sim_time t);
    /// Return the zone's outage-downed hosts to service.
    void end_az_outage(az_id az, sim_time t);
    /// Queue one detection epoch's victims (in event-time order) for a
    /// batched restart at `due`, scheduling its drain event.
    void enqueue_ha_group(sim_time due, std::vector<vm_id> victims);
    /// Drain exactly one due victim group through the speculate/commit
    /// pipeline; failed victims re-enter as one retry group at t+backoff.
    void drain_ha_restarts(sim_time t);
    /// Draw the next migration-abort decision (false when aborts are off).
    bool migration_aborted();
    /// Speculate destination nodes for planned cross-BB moves [from, n).
    void speculate_cross_bb_targets(const std::vector<cross_bb_move>& moves,
                                    std::size_t from);

    // --- conductor backpressure -------------------------------------------
    void setup_backpressure();
    /// Route one failed admission through the active controller: queue it,
    /// or shed it (and possibly a displaced lower-priority entry) with an
    /// explicit reason.  Only called when bp_ is non-null.
    void bp_admit(vm_id vm, sim_time t, bp_request_kind kind,
                  sim_time deleted_at);
    /// Terminate one queue entry with a shed event of `reason`.
    void bp_shed(const bp_queued_request& req, sim_time t,
                 schedule_fail_reason reason);
    /// Shed (or retire, when the owner's planned deletion already passed)
    /// every queue entry whose deadline has expired.
    void bp_expire_overdue(sim_time t);
    /// Drain the queue at a capacity-release instant: expire overdue
    /// entries, then retry the rest in FIFO order (quiet failures keep
    /// entries queued).
    void drain_backpressure(sim_time t);
    /// Schedule the pinned drain event for the current instant if capacity
    /// was released by the event just dispatched.
    void maybe_arm_bp_drain(sim_time t);

    // --- SoA active-VM slot table ----------------------------------------
    // Hot-path state of every *currently active* VM lives in parallel
    // columns indexed by a dense slot id; freed slots are recycled through
    // a LIFO free-list, so the columns stay O(peak-active) while the
    // registry keeps every VM ever created (the Figure 15 history).
    // active_insert fills a slot from the finished vm_record (placed_bb /
    // placed_node / created_at must be final) and active_erase returns it
    // to the free-list; slot_move / slot_reflavor keep the columns current
    // at the remaining lifecycle touch points (DRS and cross-BB moves,
    // evacuation re-places, resizes).
    void active_insert(vm_id vm);
    void active_erase(vm_id vm);
    /// Slot of an active VM; no_slot when the VM is not active.
    std::uint32_t slot_of(vm_id vm) const {
        const auto idx = static_cast<std::size_t>(vm.value());
        return idx < vm_slot_.size() ? vm_slot_[idx] : no_slot;
    }
    /// Update the host column after a migration / evacuation re-place.
    void slot_move(vm_id vm, node_id node);
    /// Re-hoist the flavor column and resample the behavior column after
    /// a resize (sample() is pure in (vm, flavor, project)).
    void slot_reflavor(const vm_record& rec);

    placement_policy policy_for(vm_id vm, const flavor& f) const;
    drs_cluster& cluster_of(bb_id bb);
    double bb_contention(bb_id bb) const;

    engine_config config_;
    scenario scenario_;
    vm_registry vms_;
    behavior_model behaviors_;
    lifetime_model lifetimes_;
    placement_service placement_;
    std::unique_ptr<conductor> conductor_;
    std::vector<drs_cluster> clusters_;  ///< indexed by bb id value
    metric_store store_;
    event_heap<engine_event> queue_;
    population population_plan_;
    run_stats stats_;
    event_log events_;
    bool setup_done_ = false;
    /// When set, scrape() seals completed raw days through this sink.
    metric_store::raw_sink raw_stream_sink_;

    // --- SoA slot columns (see active_insert above) -----------------------
    // vm_slot_ is the only per-VM-ever array (4 B each); every other
    // column is slot-indexed and bounded by the peak concurrently-active
    // population.  The scrape hot loop streams these columns in
    // active_slots_ order (ascending vm id — the exact order the old
    // per-record walk produced, so shard float sums are unchanged).
    static constexpr std::uint32_t no_slot = 0xffffffffu;
    std::vector<std::uint32_t> vm_slot_;      ///< vm id value -> slot
    std::vector<std::uint32_t> free_slots_;   ///< recycled slots (LIFO)
    std::vector<vm_id> slot_vm_;              ///< owning vm
    std::vector<std::uint32_t> slot_node_;    ///< placed node id value
    std::vector<const flavor*> slot_flavor_;  ///< hoisted catalog entry
    std::vector<sim_time> slot_created_;      ///< creation time
    std::vector<series_id> slot_cpu_series_;
    std::vector<series_id> slot_mem_series_;
    std::vector<vm_behavior> slot_behavior_;  ///< sampled eagerly on fill
    /// Noise bucket endpoints per slot, refreshed by the scrape loop and
    /// read (never written) by DRS.  Allocated at the first scrape, so
    /// runs without scrapes pay nothing; reset on every slot fill; never
    /// serialized (pure in seed and bucket, a restored engine refills it).
    std::vector<behavior_cache> slot_behavior_cache_;
    /// Slots of active VMs ordered by ascending vm id (the canonical
    /// scrape/append order).
    std::vector<std::uint32_t> active_slots_;
    /// behavior_of() result for VMs without a slot (deleted / pending);
    /// only reached from serial contexts — parallel stages read slot
    /// columns or slots directly.
    vm_behavior fallback_behavior_;

    struct node_series {
        series_id cpu_util, contention, ready, mem, tx, rx, disk;
    };
    std::vector<node_series> node_series_;
    struct bb_series {
        series_id vcpus, vcpus_used, mem, mem_used;
    };
    std::vector<bb_series> bb_series_;
    series_id instances_series_;
    std::vector<double> bb_contention_ewma_;  ///< per bb id value
    std::vector<node_demand> demand_scratch_;  ///< per node id value

    // --- parallel scrape pipeline ---------------------------------------
    // Demand is evaluated in scrape_shard_count fixed shards of the active
    // VM list regardless of worker count, and shard partials are reduced
    // in shard order — so the floating-point grouping (and therefore every
    // emitted sample) is bit-identical whether 0, 1 or N workers run.
    static constexpr unsigned scrape_shard_count = 16;

    /// Run fn over [0, count) — sharded across the pool, or inline when
    /// the engine is configured serial.
    void run_sharded(std::size_t count, const thread_pool::range_fn& fn);

    struct scrape_node {
        const node_runtime* nr;
        const compute_node* meta;
        std::uint32_t node_idx;     ///< node id value
        std::uint32_t cluster_idx;  ///< ordinal into clusters_
    };

    std::unique_ptr<thread_pool> pool_;  ///< null when running serial
    thread_pool* shared_pool_ = nullptr;  ///< non-owning; wins over pool_
    std::vector<double> scrape_cpu_col_;        ///< per active VM
    std::vector<double> scrape_mem_col_;        ///< per active VM
    /// One scrape's samples in canonical order, handed to the store's
    /// sharded batch append (stage 3).
    std::vector<metric_store::sample_event> scrape_batch_;
    /// Per fixed shard: one node_demand per node id value.
    std::vector<std::vector<node_demand>> shard_demand_;
    std::vector<scrape_node> scrape_nodes_;     ///< cluster-major, built once
    std::vector<node_snapshot> node_snap_buf_;  ///< per scrape_nodes_ entry
    std::vector<char> node_avail_buf_;          ///< per scrape_nodes_ entry

    /// VMs per speculation batch (initial, churn and recovery alike).
    static constexpr std::size_t placement_batch_size = 256;

    // --- batched churn-arrival placement ----------------------------------
    // In-window arrivals are pre-sorted by creation time and drained by
    // ONE self-rescheduling event pinned to a reserved heap sequence slot
    // (event_queue::schedule_at_pinned), so the tie order at equal
    // timestamps is exactly the per-arrival schedule it replaces while the
    // heap carries O(1) arrival entries instead of one per arrival.  Each
    // drain extends the same speculate/commit pipeline into the event
    // loop: the arrivals of the current scrape interval (capped at
    // placement_batch_size) form one speculation_batch, committed serially
    // in event-time order; a stale batch's tail re-speculates on the spot.
    struct churn_arrival {
        vm_id vm;
        sim_time created_at;
        std::optional<sim_time> deleted_at;
    };
    std::vector<churn_arrival> arrivals_;    ///< stable-sorted by created_at
    std::size_t arrival_cursor_ = 0;         ///< next arrival to commit
    std::uint64_t arrival_drain_seq_ = 0;    ///< pinned heap sequence slot
    speculation_batch window_batch_{{
        .batches = &run_stats::window_batches,
        .speculations = &run_stats::window_speculations,
        .placements = &run_stats::window_speculative_placements,
        .misses = &run_stats::window_speculation_misses,
        .invalidated = &run_stats::window_speculation_invalidated}};

    // --- parallel DRS fan-out ---------------------------------------------
    // Clusters rebalance independently (each touches only its own nodes;
    // the demand/flavor oracles are pure per VM and a VM resides in
    // exactly one cluster), so the balancing pass fans clusters across
    // the pool and commits results — events, stats, abort rollbacks —
    // serially in cluster order, keeping runs bit-identical at any
    // worker count.
    std::vector<std::vector<drs_migration>> drs_moved_buf_;  ///< per cluster

    // --- batched HA recovery placement -------------------------------------
    // One crash's victims form a group due after the detection delay; the
    // group is drained by ONE event (scheduled where the per-victim restart
    // closures used to be, so the heap tie order is exactly what the old
    // per-victim events produced) and re-placed through the same
    // speculate/commit pipeline.  Speculation batches may span groups up
    // to the scrape-interval horizon, so a batch can stay open across
    // events — a second crash (a usage shrink) invalidates its tail, which
    // re-speculates on the spot.  Victims whose restart fails re-enter as
    // ONE retry group at t + backoff, preserving the per-victim
    // retry/backoff/attempt-budget semantics bit for bit.
    struct ha_group {
        sim_time due;
        std::vector<vm_id> victims;  ///< event-time (= vm id) order
    };
    std::deque<ha_group> ha_groups_;  ///< sorted by due, FIFO within ties
    speculation_batch recovery_batch_{{
        .batches = &run_stats::recovery_batches,
        .speculations = &run_stats::recovery_speculations,
        .placements = &run_stats::recovery_speculative_placements,
        .misses = &run_stats::recovery_speculation_misses,
        .invalidated = &run_stats::recovery_speculation_invalidated}};

    // --- batched cross-BB target speculation --------------------------------
    // Destination nodes of a planned pass, each stamped with the target
    // cluster's usage version at speculation time; a commit consumes the
    // target only while the version still matches (then the recompute the
    // old serial loop did is provably identical), else the tail
    // re-speculates against the live clusters.
    struct bb_target_spec {
        std::optional<node_id> node;
        std::uint64_t version = 0;
    };
    std::vector<bb_target_spec> cross_bb_targets_;

    engine_probes probes_;  ///< invariant observation hooks (optional)

    // --- fault injection state (engaged only when fault.enabled()) ------
    std::unique_ptr<ha_controller> ha_;        ///< null when faults are off
    std::vector<char> node_down_;              ///< crashed / in maintenance
    /// Down specifically because of an AZ outage: the outage-end event
    /// repairs exactly these (individually crashed hosts keep their own
    /// repair clock).
    std::vector<char> node_az_down_;
    std::vector<double> node_cpu_factor_;      ///< degraded-capacity factor
    std::optional<rng_stream> mig_abort_rng_;  ///< serial event-loop draws
    std::optional<rng_stream> claim_fault_rng_;

    // --- conductor backpressure (engaged only when backpressure.active()) -
    std::unique_ptr<backpressure_controller> bp_;  ///< null in degrade mode
    std::uint64_t bp_drain_seq_ = 0;  ///< pinned heap sequence slot
    /// A capacity release happened during the current dispatch (set by the
    /// placement release listener and the repair paths); cleared when the
    /// drain event is armed at dispatch end.  Transient within one event —
    /// never set at a heap barrier, so snapshots need not carry it.
    bool bp_drain_wanted_ = false;
    bool bp_drain_armed_ = false;  ///< a drain event is live in the heap
    /// Guards against the drain's own quiet placement attempts re-arming
    /// the drain at the same instant (a failed node-claim path releases the
    /// provider reservation it just took, firing the release listener).
    bool bp_draining_ = false;
};

}  // namespace sci

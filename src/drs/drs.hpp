#pragma once

// VMware DRS equivalent: intra-building-block load balancing.
//
// Nova places a VM onto a *building block*; the cluster then chooses the
// concrete ESXi node and periodically migrates VMs from over- to
// under-utilized nodes ("the DRS is configured to monitor the load of the
// ESXi hosts and triggers automatic migrations ... to ensure an optimal
// resource and load distribution", Section 3.1).
//
// The balancing metric is the standard deviation of node CPU utilization
// (demand / capacity), mirroring DRS's cluster imbalance metric.  A pass
// migrates VMs until the imbalance drops below the threshold or the
// per-pass migration budget is exhausted.  Heavy VMs (large memory) are
// skipped — the paper's "avoiding migration of heavy VMs" constraint.

#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "hypervisor/node_runtime.hpp"
#include "infra/fleet.hpp"
#include "infra/flavor.hpp"

namespace sci {

struct drs_config {
    /// Target imbalance: stddev of node CPU utilization (0..1 scale).
    double imbalance_threshold = 0.08;
    /// Migration budget per balancing pass.
    int max_migrations_per_pass = 4;
    /// VMs with more reserved memory than this are never auto-migrated
    /// (migration of memory-heavy VMs causes unacceptable overhead,
    /// Section 3.2 — the operational policy is conservative, which is why
    /// node-level hotspots persist for weeks in Figures 8/9).
    mebibytes heavy_vm_ram_mib = gib_to_mib(100);
    /// Minimum imbalance improvement required to accept a migration.
    double min_gain = 0.005;
    /// Allocation ratios used for admission on the destination node.
    double cpu_allocation_ratio = 4.0;
    double ram_allocation_ratio = 1.0;
    /// Disable automatic balancing entirely (ablation: DRS off).
    bool enabled = true;
    /// Memory bin-packing mode (HANA / dedicated-XL clusters): initial
    /// placement fills the fullest node that still fits instead of the
    /// emptiest — "SAP S/4HANA workloads are explicitly bin-packed to
    /// maximize memory utilization" (Section 3.2).  Produces the
    /// nearly-full vs. nearly-empty node split of Figure 10.
    bool pack_memory = false;
};

/// One recommended (and applied) migration.
struct drs_migration {
    vm_id vm;
    node_id from;
    node_id to;
};

/// Demand oracle: instantaneous CPU demand (cores) of a VM.  Provided by
/// the engine, which owns the workload behaviors.
using vm_cpu_demand_fn = std::function<double(vm_id)>;

/// Flavor oracle: resolves a VM's flavor (for reservation accounting).
using vm_flavor_fn = std::function<const flavor&(vm_id)>;

/// One vSphere cluster: the node runtimes of a building block plus the
/// DRS balancing logic.
class drs_cluster {
public:
    drs_cluster(const building_block& block, drs_config config);

    bb_id bb() const { return bb_; }
    const drs_config& config() const { return config_; }

    /// Initial node placement: the admissible node with the lowest
    /// reserved-CPU utilization (DRS initial placement recommendation).
    /// Returns nullopt when no node admits the flavor.
    std::optional<node_id> initial_placement(const flavor& f) const;

    /// Place / remove a VM on a concrete node.
    void place(vm_id vm, const flavor& f, node_id node);
    void remove(vm_id vm, const flavor& f, node_id node);

    /// Monotonic counter bumped by every place/remove (any node).  While
    /// it is unchanged the cluster's reservations are bitwise identical,
    /// so a speculated initial_placement result is still exact — the
    /// engine's batched cross-BB target speculation keys on this.
    std::uint64_t usage_version() const { return usage_version_; }

    /// Current imbalance given per-VM demand.
    double imbalance(const vm_cpu_demand_fn& demand) const;

    /// Plan one balancing pass against a frozen copy of the node state
    /// without mutating the cluster.  The plan replays the exact
    /// place/remove sequence of the classic eager pass on the copy, so the
    /// returned moves — order included — are bit-identical to what the
    /// eager pass would have applied.  Being const, planning is safe to
    /// fan out across clusters (and across regions sharing one pool)
    /// while readers observe the live state; the caller commits serially
    /// via begin_pass() + commit_migration()/abort_migration().
    std::vector<drs_migration> plan_rebalance(
        const vm_cpu_demand_fn& demand, const vm_flavor_fn& flavor_of) const;

    /// Open the serial commit of one planned pass: resets the per-pass
    /// abort-charge dedup window.
    void begin_pass();

    /// Commit one planned migration: remove from the source, place on the
    /// target (one usage_version_ bump each), count it.
    void commit_migration(const drs_migration& m, const flavor& f);

    /// A planned migration whose pre-copy aborted: the VM never left its
    /// source, but the move still counts as attempted and the wasted
    /// pre-copy is charged (see record_abort).  Node state — and therefore
    /// usage_version() — is untouched: an aborted move leaves reservations
    /// bitwise identical, so open speculations keyed on the version stay
    /// exact.
    void abort_migration(const drs_migration& m);

    /// Run one balancing pass; applies and returns migrations.  Equivalent
    /// to begin_pass() + plan_rebalance() + commit_migration() per move —
    /// the single-caller convenience the engine's split commit no longer
    /// uses but direct consumers (tests, tools) still do.
    std::vector<drs_migration> rebalance(const vm_cpu_demand_fn& demand,
                                         const vm_flavor_fn& flavor_of);

    const std::vector<node_runtime>& nodes() const { return nodes_; }
    node_runtime& node(node_id id);
    const node_runtime& node(node_id id) const;

    /// Total migrations applied over the cluster's lifetime.
    std::uint64_t migration_count() const { return migrations_; }

    /// An applied migration aborted mid-copy (sci::fault): the caller
    /// rolled the VM back to its source node; the pre-copy bandwidth was
    /// still spent.  Recorded here so DRS cost accounting can separate
    /// useful from wasted migration work.  Asserts the VM has not already
    /// been charged this pass — a re-speculated move that aborts again
    /// must not double-bill the wasted pre-copy.
    void record_abort(vm_id vm);
    std::uint64_t abort_count() const { return aborts_; }

    /// Migrations that completed (applied minus aborted).
    std::uint64_t completed_migration_count() const {
        return migrations_ - aborts_;
    }

    // --- snapshot / fork support ------------------------------------------
    /// Flip automatic balancing post-restore (fork ablation arm).  Pure
    /// policy: plan_rebalance returns no moves when disabled and nothing
    /// else reads the flag, so the event stream is untouched.
    void set_enabled(bool enabled) { config_.enabled = enabled; }

    /// Overwrite the lifetime counters with checkpointed values.  The
    /// per-pass abort dedup window is cleared — a snapshot barrier never
    /// falls inside a pass.
    void restore_counters(std::uint64_t migrations, std::uint64_t aborts,
                          std::uint64_t usage_version) {
        migrations_ = migrations;
        aborts_ = aborts;
        usage_version_ = usage_version;
        aborted_this_pass_.clear();
    }

private:
    /// Node CPU demand in cores (sum over residents).
    double node_demand_cores(const node_runtime& nr,
                             const vm_cpu_demand_fn& demand) const;

    bb_id bb_;
    drs_config config_;
    std::vector<node_runtime> nodes_;
    std::uint64_t migrations_ = 0;
    std::uint64_t aborts_ = 0;
    std::uint64_t usage_version_ = 0;
    std::vector<vm_id> aborted_this_pass_;  ///< record_abort dedup window
};

}  // namespace sci

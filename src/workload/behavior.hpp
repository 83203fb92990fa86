#pragma once

// Per-VM workload behavior.
//
// Each VM gets a behavior sampled deterministically from its id: a mean
// CPU utilization ratio (calibrated to the Figure 14a CDF), a mean memory
// residency ratio (Figure 14b), diurnal/weekly modulation (the weekday
// effect of Figures 8/9), multiplicative hash-noise, and optional
// heavy-tailed bursts (the ready-time spikes of Figure 8).
//
// Demand evaluation is *stateless*: cpu_ratio_at(t) is a pure function of
// (vm seed, t), so any instant can be sampled in any order — replays,
// resumed runs and parallel evaluation all see identical traces.
//
// The scrape loop evaluates the same functions in two cheaper steps.  A
// behavior_instant holds everything that depends on t alone (the
// business-hours phase, the noise and burst bucket coordinates) and is
// built once per scrape.  A per-VM behavior_cache holds the bucket
// endpoints of every noise stream; they change only when a scrape
// crosses a bucket edge (every 12th scrape for the 1 h octave at the
// paper's 300 s cadence), so most scrapes hash nothing.  Both paths end
// in the same inline *_at(instant, endpoints) arithmetic below, so the
// cached values equal the pure ones bit for bit.

#include <array>
#include <cstdint>
#include <limits>

#include "infra/flavor.hpp"
#include "infra/ids.hpp"
#include "simcore/rng.hpp"
#include "simcore/time.hpp"
#include "simcore/units.hpp"
#include "workload/calibration.hpp"

namespace sci {

/// Smooth deterministic value noise in [0, 1): linear interpolation of
/// per-bucket hashes.  `pos` is a continuous bucket coordinate.
double smooth_hash_noise(std::uint64_t seed, double pos);

/// The terms of one evaluation instant that depend on t alone.
struct behavior_instant {
    double day_shape = 0.0;         ///< business-hours sine, peak at 14:00
    bool weekend = false;
    std::int64_t fast_bucket = 0;   ///< 1 h noise octave
    double fast_step = 0.0;         ///< smoothstep of the offset in it
    std::int64_t slow_bucket = 0;   ///< 6 h noise octave
    double slow_step = 0.0;
    std::int64_t burst_bucket = 0;  ///< 30 min burst bucket

    static behavior_instant at(sim_time t);
};

/// One noise stream's hashes at the edges of the fast and slow buckets
/// holding an instant (a = the bucket, b = its successor).
struct noise_endpoints {
    double fast_a = 0.0;
    double fast_b = 0.0;
    double slow_a = 0.0;
    double slow_b = 0.0;
};

/// Diurnal × weekly multiplicative curve, normalized to mean 1 over a
/// week so a VM's realized average utilization matches its sampled mean.
inline double weekly_at(const behavior_instant& in, double amplitude) {
    double v = 1.0 + amplitude * in.day_shape;
    if (in.weekend) v *= calibration::weekend_activity_factor;
    // weekly mean of the weekend dip: (5 + 2*f) / 7
    constexpr double weekly_mean =
        (5.0 + 2.0 * calibration::weekend_activity_factor) / 7.0;
    return v / weekly_mean;
}

/// Multiplicative two-octave noise, mean ≈ 1.
inline double noise_at(const noise_endpoints& e, const behavior_instant& in,
                       double amplitude) {
    const double fast = e.fast_a + (e.fast_b - e.fast_a) * in.fast_step;
    const double slow = e.slow_a + (e.slow_b - e.slow_a) * in.slow_step;
    const double blended = 0.6 * fast + 0.4 * slow;  // in [0, 1)
    return 1.0 + amplitude * (2.0 * blended - 1.0);
}

/// Behavioral parameters of one VM (fixed at creation).
struct vm_behavior {
    std::uint64_t seed = 0;      ///< drives all per-instant noise
    double cpu_mean_ratio = 0.2; ///< target average of cpu usage ratio
    double mem_mean_ratio = 0.8; ///< target average of memory consumed ratio
    double diurnal_amplitude = 0.0;
    bool bursty = false;         ///< heavy-tailed spikes (CI/CD-like)
    /// False for batch/CI tenants that run nights and weekends too; their
    /// load does not follow the business-hours curve, which keeps the
    /// contention *maximum* persistent across the week (Figure 9: "does
    /// not show temporal effects, implying a persistent problem").
    bool business_hours = true;
    /// Seed of the burst process.  Derived from the owning *project*, so
    /// VMs of one tenant spike together — the "time-synchronous events"
    /// the paper names as a contention root cause (Section 7).
    std::uint64_t burst_seed = 0;
    double mem_growth_per_day = 0.0;  ///< slow residency growth (some VMs)
    kbps tx_kbps_mean = 0.0;
    kbps rx_kbps_mean = 0.0;
    double disk_fill = 0.5;      ///< fraction of flavor disk allocated

    /// The independent noise streams of one VM.
    enum stream : unsigned { cpu_stream, mem_stream, tx_stream, rx_stream };
    static constexpr unsigned stream_count = 4;

    /// Instantaneous CPU usage ratio in [0, 1] (fraction of allocated vCPU).
    double cpu_ratio_at(sim_time t) const;

    /// Instantaneous memory consumed ratio in [0, 1].
    /// `age` is time since the VM's creation (drives slow growth).
    double mem_ratio_at(sim_time t, sim_duration age) const;

    /// Instantaneous NIC traffic.
    kbps tx_at(sim_time t) const;
    kbps rx_at(sim_time t) const;

    // The same values from an instant and the stream's bucket endpoints
    // (`burst` is the burst multiplier, read only when bursty).  The
    // functions above are these with freshly hashed endpoints.
    double cpu_ratio_at(const behavior_instant& in, const noise_endpoints& e,
                        double burst) const {
        double v = cpu_mean_ratio;
        if (business_hours) v *= weekly_at(in, diurnal_amplitude);
        v *= noise_at(e, in, calibration::noise_amplitude);
        if (bursty) v *= burst;
        return clamp_ratio(v);
    }
    double mem_ratio_at(const behavior_instant& in, const noise_endpoints& e,
                        sim_duration age) const {
        double v = mem_mean_ratio;
        // memory moves far less than CPU: small noise, no business-hours swing
        v *= noise_at(e, in, 0.05);
        v += mem_growth_per_day * (static_cast<double>(age) / 86400.0);
        return clamp_ratio(v);
    }
    kbps tx_at(const behavior_instant& in, const noise_endpoints& e) const {
        return tx_kbps_mean * weekly_at(in, diurnal_amplitude) *
               noise_at(e, in, calibration::noise_amplitude);
    }
    kbps rx_at(const behavior_instant& in, const noise_endpoints& e) const {
        return rx_kbps_mean * weekly_at(in, diurnal_amplitude) *
               noise_at(e, in, calibration::noise_amplitude);
    }
};

/// One VM's noise endpoints and burst multiplier, carried from scrape to
/// scrape.  On a step to the next bucket the old b becomes a and one new
/// hash is computed per stream; any other move (first use, reset, skipped
/// buckets) refills from the seeds.  The entry is pure in (behavior
/// seeds, buckets), so it is never serialized: a restored engine refills
/// it on its first scrape.
class behavior_cache {
public:
    /// Move the entry to `in`'s buckets (a no-op inside them).
    void refresh(const vm_behavior& b, const behavior_instant& in) {
        if (!current(in)) refill(b, in);
    }
    /// True when the entry holds exactly `in`'s buckets, so the reads
    /// below equal the pure vm_behavior::*_at(t) values.
    bool current(const behavior_instant& in) const {
        return fast_bucket_ == in.fast_bucket &&
               slow_bucket_ == in.slow_bucket &&
               burst_bucket_ == in.burst_bucket;
    }
    /// Forget the entry (its slot now holds another VM or behavior).
    void reset() { *this = behavior_cache{}; }

    double cpu_ratio(const vm_behavior& b, const behavior_instant& in) const {
        return b.cpu_ratio_at(in, noise_[vm_behavior::cpu_stream], burst_);
    }
    double mem_ratio(const vm_behavior& b, const behavior_instant& in,
                     sim_duration age) const {
        return b.mem_ratio_at(in, noise_[vm_behavior::mem_stream], age);
    }
    kbps tx(const vm_behavior& b, const behavior_instant& in) const {
        return b.tx_at(in, noise_[vm_behavior::tx_stream]);
    }
    kbps rx(const vm_behavior& b, const behavior_instant& in) const {
        return b.rx_at(in, noise_[vm_behavior::rx_stream]);
    }

private:
    void refill(const vm_behavior& b, const behavior_instant& in);

    static constexpr std::int64_t unset =
        std::numeric_limits<std::int64_t>::min();
    std::int64_t fast_bucket_ = unset;
    std::int64_t slow_bucket_ = unset;
    std::int64_t burst_bucket_ = unset;
    /// Fast-octave seed per stream (the slow seed is splitmix64 of it).
    std::array<std::uint64_t, vm_behavior::stream_count> seeds_{};
    std::uint64_t burst_seed_ = 0;
    double burst_ = 1.0;
    std::array<noise_endpoints, vm_behavior::stream_count> noise_{};
};

/// Samples vm_behavior deterministically per VM id, calibrated per
/// workload class (see workload/calibration.hpp).
class behavior_model {
public:
    explicit behavior_model(std::uint64_t master_seed);

    /// Behavior for a VM of the given flavor owned by the given project.
    /// Pure in (vm, flavor, project).
    vm_behavior sample(vm_id vm, const flavor& f,
                       project_id project = project_id(0)) const;

private:
    std::uint64_t master_seed_;
};

/// Lifetime sampler (Figure 15): lognormal per workload class, clamped to
/// [2 min, 6 y].  Pure in (vm, flavor).
class lifetime_model {
public:
    explicit lifetime_model(std::uint64_t master_seed);

    sim_duration sample(vm_id vm, const flavor& f) const;

private:
    std::uint64_t master_seed_;
};

}  // namespace sci

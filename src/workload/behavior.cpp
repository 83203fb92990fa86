#include "workload/behavior.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "workload/calibration.hpp"

namespace sci {

namespace cal = calibration;

namespace {

/// Per-bucket hash to [0, 1).
double bucket_hash(std::uint64_t seed, std::int64_t bucket) {
    const std::uint64_t h =
        splitmix64(seed ^ splitmix64(static_cast<std::uint64_t>(bucket) +
                                     0x9e3779b97f4a7c15ULL));
    return static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
}

double smoothstep(double x) { return x * x * (3.0 - 2.0 * x); }

/// Bucket of a continuous bucket coordinate and the smoothstep of the
/// offset inside it.
void bucket_coordinate(double pos, std::int64_t& bucket, double& step) {
    const double floor_pos = std::floor(pos);
    bucket = static_cast<std::int64_t>(floor_pos);
    step = smoothstep(pos - floor_pos);
}

/// The bucket terms of behavior_instant::at — all that streams without
/// the weekly curve (memory) need.
behavior_instant bucket_instant(sim_time t) {
    behavior_instant in;
    bucket_coordinate(static_cast<double>(t) / 3600.0, in.fast_bucket,
                      in.fast_step);
    bucket_coordinate(static_cast<double>(t) / 21600.0, in.slow_bucket,
                      in.slow_step);
    in.burst_bucket = t / minutes(30);
    return in;
}

/// Fast-octave seed of one noise stream (the slow octave hashes with
/// splitmix64 of it).
std::uint64_t stream_seed(std::uint64_t seed, unsigned stream) {
    switch (stream) {
        case vm_behavior::cpu_stream: return seed;
        case vm_behavior::mem_stream: return splitmix64(seed ^ 0x6d5f3c1b2a498675ULL);
        case vm_behavior::tx_stream: return splitmix64(seed ^ 0x1f83d9abfb41bd6bULL);
        default: return splitmix64(seed ^ 0x5be0cd19137e2179ULL);
    }
}

std::uint64_t burst_stream_seed(std::uint64_t burst_seed) {
    return splitmix64(burst_seed ^ 0xb5297a4d3f2c1e0bULL);
}

noise_endpoints hashed_endpoints(std::uint64_t seed,
                                 const behavior_instant& in) {
    const std::uint64_t slow_seed = splitmix64(seed);
    return {bucket_hash(seed, in.fast_bucket),
            bucket_hash(seed, in.fast_bucket + 1),
            bucket_hash(slow_seed, in.slow_bucket),
            bucket_hash(slow_seed, in.slow_bucket + 1)};
}

/// Heavy-tailed burst multiplier for bursty VMs: per-30-minute bucket, a
/// ~1.5% chance of a spike of 3x up to burst_spike_multiplier_max.  The
/// seed is project-derived, so one tenant's VMs spike *together* — the
/// "time-synchronous events" of Section 7 — and co-located tenants drive
/// the >40% contention outliers of Figure 9 and the ready-time spikes of
/// Figure 8.
double burst_multiplier(std::uint64_t stream, std::int64_t bucket) {
    const double u = bucket_hash(stream, bucket);
    if (u > 0.015) return 1.0;
    // reuse the low bits of u for the spike height
    const double v = u / 0.015;
    return 3.0 + v * (cal::burst_spike_multiplier_max - 3.0);
}

}  // namespace

double smooth_hash_noise(std::uint64_t seed, double pos) {
    std::int64_t bucket = 0;
    double step = 0.0;
    bucket_coordinate(pos, bucket, step);
    const double a = bucket_hash(seed, bucket);
    const double b = bucket_hash(seed, bucket + 1);
    return a + (b - a) * step;
}

behavior_instant behavior_instant::at(sim_time t) {
    behavior_instant in = bucket_instant(t);
    // business-hours sine peaking at 14:00 local; zero-mean over a day
    const double hour = static_cast<double>(second_of_day(t)) / 3600.0;
    in.day_shape = std::sin((hour - 8.0) / 24.0 * 2.0 * std::numbers::pi);
    in.weekend = is_weekend(t);
    return in;
}

void behavior_cache::refill(const vm_behavior& b, const behavior_instant& in) {
    if (fast_bucket_ == unset) {
        for (unsigned s = 0; s < vm_behavior::stream_count; ++s) {
            seeds_[s] = stream_seed(b.seed, s);
        }
        burst_seed_ = burst_stream_seed(b.burst_seed);
    }
    if (fast_bucket_ != in.fast_bucket) {
        const bool step = fast_bucket_ != unset && fast_bucket_ + 1 == in.fast_bucket;
        for (unsigned s = 0; s < vm_behavior::stream_count; ++s) {
            noise_endpoints& e = noise_[s];
            e.fast_a = step ? e.fast_b : bucket_hash(seeds_[s], in.fast_bucket);
            e.fast_b = bucket_hash(seeds_[s], in.fast_bucket + 1);
        }
        fast_bucket_ = in.fast_bucket;
    }
    if (slow_bucket_ != in.slow_bucket) {
        const bool step = slow_bucket_ != unset && slow_bucket_ + 1 == in.slow_bucket;
        for (unsigned s = 0; s < vm_behavior::stream_count; ++s) {
            const std::uint64_t slow_seed = splitmix64(seeds_[s]);
            noise_endpoints& e = noise_[s];
            e.slow_a = step ? e.slow_b : bucket_hash(slow_seed, in.slow_bucket);
            e.slow_b = bucket_hash(slow_seed, in.slow_bucket + 1);
        }
        slow_bucket_ = in.slow_bucket;
    }
    if (burst_bucket_ != in.burst_bucket) {
        burst_ = burst_multiplier(burst_seed_, in.burst_bucket);
        burst_bucket_ = in.burst_bucket;
    }
}

double vm_behavior::cpu_ratio_at(sim_time t) const {
    const behavior_instant in = behavior_instant::at(t);
    return cpu_ratio_at(
        in, hashed_endpoints(seed, in),
        bursty ? burst_multiplier(burst_stream_seed(burst_seed), in.burst_bucket)
               : 1.0);
}

double vm_behavior::mem_ratio_at(sim_time t, sim_duration age) const {
    const behavior_instant in = bucket_instant(t);
    return mem_ratio_at(in, hashed_endpoints(stream_seed(seed, mem_stream), in),
                        age);
}

kbps vm_behavior::tx_at(sim_time t) const {
    const behavior_instant in = behavior_instant::at(t);
    return tx_at(in, hashed_endpoints(stream_seed(seed, tx_stream), in));
}

kbps vm_behavior::rx_at(sim_time t) const {
    const behavior_instant in = behavior_instant::at(t);
    return rx_at(in, hashed_endpoints(stream_seed(seed, rx_stream), in));
}

behavior_model::behavior_model(std::uint64_t master_seed)
    : master_seed_(master_seed) {}

vm_behavior behavior_model::sample(vm_id vm, const flavor& f,
                                   project_id project) const {
    rng_stream rng = rng_stream(master_seed_, "behavior")
                         .child(static_cast<std::uint64_t>(vm.value()));
    vm_behavior b;
    b.seed = splitmix64(master_seed_ ^
                        splitmix64(static_cast<std::uint64_t>(vm.value())));
    b.burst_seed = splitmix64(
        master_seed_ ^ 0x709394a5b1c2d3e4ULL ^
        splitmix64(static_cast<std::uint64_t>(project.value()) + 1));

    // --- CPU mean ratio: band mixture calibrated to Figure 14a ----------
    if (f.wclass == workload_class::hana_db) {
        // in-memory databases are memory-sized; their CPU allocation is
        // generous and rarely saturated (they sit deep in Figure 14a's
        // underutilized band)
        b.cpu_mean_ratio = rng.uniform(0.10, 0.55);
    } else if (f.wclass == workload_class::s4hana_app) {
        // ABAP application servers are sized for memory and peak headroom:
        // mostly calm, but a tail of busy systems exists — on the packed
        // app-server building blocks that tail is what produces the >40%
        // contention outliers of Figure 9 while the fleet envelope stays low
        if (rng.chance(0.88)) {
            b.cpu_mean_ratio = rng.uniform(0.05, 0.50);
        } else {
            b.cpu_mean_ratio = rng.uniform(0.50, 0.95);
        }
    } else {
        const double bands[] = {cal::cpu_low_band_weight,
                                cal::cpu_mid_band_weight,
                                cal::cpu_optimal_band_weight,
                                cal::cpu_over_band_weight};
        switch (rng.pick_weighted(bands)) {
            case 0: b.cpu_mean_ratio = rng.uniform(0.02, 0.55); break;
            case 1: b.cpu_mean_ratio = rng.uniform(0.55, 0.70); break;
            case 2: b.cpu_mean_ratio = rng.uniform(0.70, 0.85); break;
            default: b.cpu_mean_ratio = rng.uniform(0.85, 0.98); break;
        }
    }

    // --- memory mean ratio: Figure 14b; HANA sits in the high band ------
    if (f.wclass == workload_class::hana_db) {
        b.mem_mean_ratio = rng.uniform(cal::hana_mem_ratio_lo, cal::hana_mem_ratio_hi);
    } else {
        const double mem_bands[] = {cal::mem_low_band_weight,
                                    cal::mem_optimal_band_weight,
                                    cal::mem_high_band_weight};
        switch (rng.pick_weighted(mem_bands)) {
            case 0: b.mem_mean_ratio = rng.uniform(0.15, 0.70); break;
            case 1: b.mem_mean_ratio = rng.uniform(0.70, 0.85); break;
            default: b.mem_mean_ratio = rng.uniform(0.85, 0.99); break;
        }
    }

    // --- modulation ------------------------------------------------------
    b.diurnal_amplitude = f.wclass == workload_class::hana_db
                              ? cal::hana_diurnal_amplitude
                              : cal::gp_diurnal_amplitude;
    b.bursty = f.wclass == workload_class::general_purpose &&
               rng.chance(cal::bursty_vm_fraction);
    // half the bursty tenants are batch/CI systems active around the clock
    if (b.bursty && rng.chance(0.5)) b.business_hours = false;

    // a minority of VMs exhibit the slow memory growth visible in Fig. 10
    if (rng.chance(0.10)) {
        b.mem_growth_per_day = rng.uniform(0.001, 0.01);
    }

    // --- network ----------------------------------------------------------
    const double per_vcpu_tx = rng.lognormal(cal::net_tx_kbps_per_vcpu_mu,
                                             cal::net_tx_kbps_per_vcpu_sigma);
    b.tx_kbps_mean = per_vcpu_tx * static_cast<double>(f.vcpus);
    b.rx_kbps_mean = b.tx_kbps_mean * cal::net_rx_asymmetry;

    // --- storage ----------------------------------------------------------
    b.disk_fill = rng.uniform(cal::disk_fill_lo, cal::disk_fill_hi);
    return b;
}

lifetime_model::lifetime_model(std::uint64_t master_seed)
    : master_seed_(master_seed) {}

sim_duration lifetime_model::sample(vm_id vm, const flavor& f) const {
    rng_stream rng = rng_stream(master_seed_, "lifetime")
                         .child(static_cast<std::uint64_t>(vm.value()));
    double mu = cal::gp_lifetime_mu;
    double sigma = cal::gp_lifetime_sigma;
    if (f.wclass == workload_class::hana_db) {
        mu = cal::hana_lifetime_mu;
        sigma = cal::hana_lifetime_sigma;
    } else if (f.wclass == workload_class::s4hana_app) {
        mu = cal::s4app_lifetime_mu;
        sigma = cal::s4app_lifetime_sigma;
    }
    const double secs = std::clamp(rng.lognormal(mu, sigma),
                                   cal::lifetime_min_seconds,
                                   cal::lifetime_max_seconds);
    return static_cast<sim_duration>(secs);
}

}  // namespace sci

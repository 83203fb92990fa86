// Tests for workload/behavior: the calibrated synthetic workload models.
// These are the load-bearing substitutions for SAP's proprietary traces,
// so the tests pin the published statistics they target.

#include "workload/behavior.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "simcore/stats.hpp"
#include "workload/calibration.hpp"

namespace sci {
namespace {

flavor make_flavor(workload_class wc, core_count vcpus = 4,
                   double ram_gib = 32) {
    return flavor{.id = flavor_id(0), .name = "f", .vcpus = vcpus,
                  .ram_mib = gib_to_mib(ram_gib), .disk_gib = 100.0,
                  .wclass = wc};
}

TEST(SmoothHashNoiseTest, StaysInUnitInterval) {
    for (int i = 0; i < 1000; ++i) {
        const double v = smooth_hash_noise(42, i * 0.37);
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(SmoothHashNoiseTest, ContinuousAcrossBuckets) {
    // values just left/right of a bucket boundary must nearly agree
    for (int b = 1; b < 50; ++b) {
        const double left = smooth_hash_noise(7, b - 1e-9);
        const double right = smooth_hash_noise(7, b + 1e-9);
        EXPECT_NEAR(left, right, 1e-6);
    }
}

TEST(SmoothHashNoiseTest, DeterministicPerSeed) {
    EXPECT_DOUBLE_EQ(smooth_hash_noise(1, 3.5), smooth_hash_noise(1, 3.5));
    EXPECT_NE(smooth_hash_noise(1, 3.5), smooth_hash_noise(2, 3.5));
}

TEST(BehaviorModelTest, DeterministicPerVm) {
    const behavior_model model(42);
    const flavor f = make_flavor(workload_class::general_purpose);
    const vm_behavior a = model.sample(vm_id(5), f);
    const vm_behavior b = model.sample(vm_id(5), f);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_DOUBLE_EQ(a.cpu_mean_ratio, b.cpu_mean_ratio);
    EXPECT_DOUBLE_EQ(a.mem_mean_ratio, b.mem_mean_ratio);
    EXPECT_DOUBLE_EQ(a.tx_kbps_mean, b.tx_kbps_mean);
}

TEST(BehaviorModelTest, DifferentVmsDiffer) {
    const behavior_model model(42);
    const flavor f = make_flavor(workload_class::general_purpose);
    const vm_behavior a = model.sample(vm_id(1), f);
    const vm_behavior b = model.sample(vm_id(2), f);
    EXPECT_NE(a.seed, b.seed);
    EXPECT_NE(a.cpu_mean_ratio, b.cpu_mean_ratio);
}

TEST(BehaviorModelTest, CpuRatiosAlwaysInUnitInterval) {
    const behavior_model model(42);
    const flavor f = make_flavor(workload_class::general_purpose);
    for (int v = 0; v < 20; ++v) {
        const vm_behavior b = model.sample(vm_id(v), f);
        for (sim_time t = 0; t < days(2); t += 3600) {
            const double ratio = b.cpu_ratio_at(t);
            EXPECT_GE(ratio, 0.0);
            EXPECT_LE(ratio, 1.0);
        }
    }
}

TEST(BehaviorModelTest, RealizedCpuMeanTracksSampledMean) {
    const behavior_model model(42);
    const flavor f = make_flavor(workload_class::general_purpose);
    // pick a mid-band VM (clamping distorts the extremes)
    for (int v = 0; v < 200; ++v) {
        const vm_behavior b = model.sample(vm_id(v), f);
        if (b.cpu_mean_ratio < 0.3 || b.cpu_mean_ratio > 0.5 || b.bursty) continue;
        running_stats realized;
        for (sim_time t = 0; t < days(28); t += 900) {
            realized.add(b.cpu_ratio_at(t));
        }
        EXPECT_NEAR(realized.mean(), b.cpu_mean_ratio, 0.08)
            << "vm " << v << " target " << b.cpu_mean_ratio;
        return;  // one qualifying VM suffices
    }
    FAIL() << "no mid-band VM found";
}

TEST(BehaviorModelTest, Figure14aBandWeightsRespected) {
    const behavior_model model(42);
    const flavor f = make_flavor(workload_class::general_purpose);
    int under = 0;
    const int n = 5000;
    for (int v = 0; v < n; ++v) {
        if (model.sample(vm_id(v), f).cpu_mean_ratio < 0.70) ++under;
    }
    const double expected = calibration::cpu_low_band_weight +
                            calibration::cpu_mid_band_weight;
    EXPECT_NEAR(static_cast<double>(under) / n, expected, 0.03);
}

TEST(BehaviorModelTest, HanaMemoryResidencyHigh) {
    const behavior_model model(42);
    const flavor hana = make_flavor(workload_class::hana_db, 64, 2048);
    for (int v = 0; v < 100; ++v) {
        const vm_behavior b = model.sample(vm_id(v), hana);
        EXPECT_GE(b.mem_mean_ratio, calibration::hana_mem_ratio_lo);
        EXPECT_LT(b.mem_mean_ratio, calibration::hana_mem_ratio_hi);
        EXPECT_DOUBLE_EQ(b.diurnal_amplitude, calibration::hana_diurnal_amplitude);
        EXPECT_FALSE(b.bursty);  // HANA DB is never the bursty CI/CD tenant
    }
}

TEST(BehaviorModelTest, Figure14bMemoryBands) {
    const behavior_model model(42);
    const flavor f = make_flavor(workload_class::general_purpose);
    int under = 0, over = 0;
    const int n = 5000;
    for (int v = 0; v < n; ++v) {
        const double m = model.sample(vm_id(v), f).mem_mean_ratio;
        if (m < 0.70) ++under;
        if (m >= 0.85) ++over;
    }
    EXPECT_NEAR(static_cast<double>(under) / n,
                calibration::mem_low_band_weight, 0.03);
    EXPECT_NEAR(static_cast<double>(over) / n,
                calibration::mem_high_band_weight, 0.03);
}

TEST(BehaviorModelTest, WeekdayLoadExceedsWeekendLoad) {
    const behavior_model model(42);
    const flavor f = make_flavor(workload_class::general_purpose);
    running_stats weekday, weekend;
    for (int v = 0; v < 50; ++v) {
        const vm_behavior b = model.sample(vm_id(v), f);
        for (sim_time t = 0; t < days(28); t += 1800) {
            (is_weekend(t) ? weekend : weekday).add(b.cpu_ratio_at(t));
        }
    }
    EXPECT_GT(weekday.mean(), weekend.mean() * 1.2);
}

TEST(BehaviorModelTest, BurstyVmsSpike) {
    const behavior_model model(42);
    const flavor f = make_flavor(workload_class::general_purpose);
    for (int v = 0; v < 500; ++v) {
        const vm_behavior b = model.sample(vm_id(v), f);
        if (!b.bursty || b.cpu_mean_ratio > 0.3) continue;
        double peak = 0.0;
        for (sim_time t = 0; t < days(28); t += 300) {
            peak = std::max(peak, b.cpu_ratio_at(t));
        }
        EXPECT_GT(peak, b.cpu_mean_ratio * 1.8);
        return;
    }
    FAIL() << "no low-mean bursty VM in 500 samples";
}

TEST(BehaviorModelTest, MemoryGrowsForGrowingVms) {
    const behavior_model model(42);
    const flavor f = make_flavor(workload_class::general_purpose);
    for (int v = 0; v < 500; ++v) {
        const vm_behavior b = model.sample(vm_id(v), f);
        if (b.mem_growth_per_day <= 0.0 || b.mem_mean_ratio > 0.5) continue;
        const double young = b.mem_ratio_at(0, 0);
        const double old = b.mem_ratio_at(0, days(20));
        EXPECT_GT(old, young);
        return;
    }
    FAIL() << "no growing VM found";
}

TEST(BehaviorModelTest, NetworkScalesWithVcpus) {
    const behavior_model model(42);
    running_stats small_tx, large_tx;
    for (int v = 0; v < 300; ++v) {
        small_tx.add(
            model.sample(vm_id(v), make_flavor(workload_class::general_purpose, 2))
                .tx_kbps_mean);
        large_tx.add(
            model.sample(vm_id(v), make_flavor(workload_class::general_purpose, 32))
                .tx_kbps_mean);
    }
    EXPECT_GT(large_tx.mean(), small_tx.mean() * 4.0);
}

TEST(BehaviorModelTest, RxExceedsTxByAsymmetry) {
    const behavior_model model(42);
    const vm_behavior b =
        model.sample(vm_id(0), make_flavor(workload_class::general_purpose));
    EXPECT_NEAR(b.rx_kbps_mean / b.tx_kbps_mean, calibration::net_rx_asymmetry,
                1e-9);
}

TEST(BehaviorModelTest, DiskFillWithinBand) {
    const behavior_model model(42);
    const flavor f = make_flavor(workload_class::general_purpose);
    for (int v = 0; v < 200; ++v) {
        const double fill = model.sample(vm_id(v), f).disk_fill;
        EXPECT_GE(fill, calibration::disk_fill_lo);
        EXPECT_LT(fill, calibration::disk_fill_hi);
    }
}

// --- lifetimes (Figure 15) --------------------------------------------------

// --- cached evaluation (the scrape path) -----------------------------------

/// A mixed population: general-purpose (some bursty, some around the
/// clock), HANA and S/4 app servers, spread over several projects.
std::vector<vm_behavior> cache_test_vms() {
    const behavior_model model(2024);
    const workload_class classes[] = {workload_class::general_purpose,
                                      workload_class::hana_db,
                                      workload_class::s4hana_app};
    std::mt19937_64 gen(99);
    std::vector<vm_behavior> out;
    for (int i = 0; i < 300; ++i) {
        const auto id = static_cast<std::int32_t>(gen() % 1'000'000);
        out.push_back(model.sample(vm_id(id), make_flavor(classes[i % 3]),
                                   project_id(static_cast<std::int32_t>(i % 17))));
    }
    return out;
}

/// Bitwise equality of the cached reads and the pure *_at(t) functions.
void expect_cache_matches_pure(const behavior_cache& cache,
                               const vm_behavior& b, sim_time t) {
    const behavior_instant in = behavior_instant::at(t);
    ASSERT_TRUE(cache.current(in)) << "t=" << t;
    const sim_duration age = t + 12345;
    const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    EXPECT_EQ(bits(cache.cpu_ratio(b, in)), bits(b.cpu_ratio_at(t))) << "t=" << t;
    EXPECT_EQ(bits(cache.mem_ratio(b, in, age)), bits(b.mem_ratio_at(t, age)))
        << "t=" << t;
    EXPECT_EQ(bits(cache.tx(b, in)), bits(b.tx_at(t))) << "t=" << t;
    EXPECT_EQ(bits(cache.rx(b, in)), bits(b.rx_at(t))) << "t=" << t;
}

TEST(BehaviorCacheTest, PopulationCoversEveryBehaviourKind) {
    int bursty = 0, around_the_clock = 0, hana = 0;
    for (const vm_behavior& b : cache_test_vms()) {
        bursty += b.bursty ? 1 : 0;
        around_the_clock += b.business_hours ? 0 : 1;
        hana += b.diurnal_amplitude == calibration::hana_diurnal_amplitude ? 1 : 0;
    }
    EXPECT_GT(bursty, 0);
    EXPECT_GT(around_the_clock, 0);
    EXPECT_GT(hana, 0);
}

TEST(BehaviorCacheTest, ConsecutiveScrapesMatchPureEvaluation) {
    // the scrape cadence walks every bucket one step at a time (b -> a)
    for (const vm_behavior& b : cache_test_vms()) {
        behavior_cache cache;
        for (sim_time t = days(4) - 7200; t < days(6); t += 300) {
            cache.refresh(b, behavior_instant::at(t));
            expect_cache_matches_pure(cache, b, t);
        }
    }
}

TEST(BehaviorCacheTest, InstantsOnAndNextToEveryBucketEdgeMatch) {
    // 30 min edges include every 1 h and 6 h edge; one cache per VM sees
    // edge-1, edge, edge+1 in turn (in-bucket, step, in-bucket)
    for (const vm_behavior& b : cache_test_vms()) {
        behavior_cache cache;
        for (sim_time edge = minutes(30); edge <= days(2); edge += minutes(30)) {
            for (const sim_time t : {edge - 1, edge, edge + 1}) {
                cache.refresh(b, behavior_instant::at(t));
                expect_cache_matches_pure(cache, b, t);
            }
        }
    }
}

TEST(BehaviorCacheTest, SkippedBucketsRefillFromTheSeeds) {
    // gaps of two fast buckets, one slow bucket, several days — and a step
    // back — must never reuse a stale endpoint
    const sim_duration gaps[] = {7200, 7201, 21600, 25 * 3600, days(3), 3599};
    for (const vm_behavior& b : cache_test_vms()) {
        behavior_cache cache;
        sim_time t = 1800;
        for (int i = 0; i < 12; ++i) {
            cache.refresh(b, behavior_instant::at(t));
            expect_cache_matches_pure(cache, b, t);
            t += gaps[i % std::size(gaps)];
        }
        t -= days(1);
        cache.refresh(b, behavior_instant::at(t));
        expect_cache_matches_pure(cache, b, t);
    }
}

TEST(BehaviorCacheTest, ResetSlotServesTheNextVm) {
    // a recycled slot: VM a fills the entry, then VM b takes the slot
    // mid-bucket (reset on fill) and must see its own streams only
    const std::vector<vm_behavior> vms = cache_test_vms();
    behavior_cache cache;
    for (std::size_t i = 0; i + 1 < vms.size(); i += 7) {
        const sim_time t = days(1) + static_cast<sim_time>(i) * 300;
        cache.refresh(vms[i], behavior_instant::at(t));
        cache.reset();
        EXPECT_FALSE(cache.current(behavior_instant::at(t)));
        cache.refresh(vms[i + 1], behavior_instant::at(t));
        expect_cache_matches_pure(cache, vms[i + 1], t);
        cache.refresh(vms[i + 1], behavior_instant::at(t + 3600));
        expect_cache_matches_pure(cache, vms[i + 1], t + 3600);
    }
}

TEST(BehaviorCacheTest, CurrentOnlyWithinTheSameBuckets) {
    const vm_behavior b = cache_test_vms().front();
    behavior_cache cache;
    EXPECT_FALSE(cache.current(behavior_instant::at(0)));
    cache.refresh(b, behavior_instant::at(600));
    EXPECT_TRUE(cache.current(behavior_instant::at(0)));
    EXPECT_TRUE(cache.current(behavior_instant::at(1799)));
    EXPECT_FALSE(cache.current(behavior_instant::at(1800)));  // burst edge
}

TEST(LifetimeModelTest, DeterministicPerVm) {
    const lifetime_model model(42);
    const flavor f = make_flavor(workload_class::general_purpose);
    EXPECT_EQ(model.sample(vm_id(3), f), model.sample(vm_id(3), f));
}

TEST(LifetimeModelTest, ClampedToDocumentedRange) {
    const lifetime_model model(42);
    for (auto wc : {workload_class::general_purpose, workload_class::hana_db,
                    workload_class::s4hana_app}) {
        const flavor f = make_flavor(wc);
        for (int v = 0; v < 2000; ++v) {
            const sim_duration lt = model.sample(vm_id(v), f);
            EXPECT_GE(lt, static_cast<sim_duration>(
                              calibration::lifetime_min_seconds));
            EXPECT_LE(lt, static_cast<sim_duration>(
                              calibration::lifetime_max_seconds));
        }
    }
}

TEST(LifetimeModelTest, SpansMinutesToYears) {
    const lifetime_model model(42);
    const flavor f = make_flavor(workload_class::general_purpose);
    sim_duration shortest = std::numeric_limits<sim_duration>::max();
    sim_duration longest = 0;
    for (int v = 0; v < 20000; ++v) {
        const sim_duration lt = model.sample(vm_id(v), f);
        shortest = std::min(shortest, lt);
        longest = std::max(longest, lt);
    }
    EXPECT_LT(shortest, hours(1));         // minutes-scale VMs exist
    EXPECT_GT(longest, days(365));         // years-scale VMs exist
}

TEST(LifetimeModelTest, HanaLongerLivedThanGeneralPurposeOnMedian) {
    const lifetime_model model(42);
    std::vector<double> gp, hana;
    for (int v = 0; v < 4001; ++v) {
        gp.push_back(static_cast<double>(
            model.sample(vm_id(v), make_flavor(workload_class::general_purpose))));
        hana.push_back(static_cast<double>(
            model.sample(vm_id(v), make_flavor(workload_class::hana_db))));
    }
    std::nth_element(gp.begin(), gp.begin() + 2000, gp.end());
    std::nth_element(hana.begin(), hana.begin() + 2000, hana.end());
    EXPECT_GT(hana[2000], gp[2000]);
}

}  // namespace
}  // namespace sci

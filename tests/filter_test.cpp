// Tests for sched/filter: the Nova filter pipeline.

#include "sched/filter.hpp"

#include <gtest/gtest.h>

#include "simcore/error.hpp"

namespace sci {
namespace {

flavor make_flavor(core_count vcpus, double ram_gib, double disk = 100.0,
                   workload_class wc = workload_class::general_purpose) {
    return flavor{.id = flavor_id(0), .name = "f", .vcpus = vcpus,
                  .ram_mib = gib_to_mib(ram_gib), .disk_gib = disk,
                  .wclass = wc};
}

host_state make_host() {
    host_state h;
    h.bb = bb_id(0);
    h.az = az_id(0);
    h.dc = dc_id(0);
    h.purpose = bb_purpose::general;
    h.node_count = 4;
    h.total_pcpus = 4 * 96;
    h.total_ram_mib = 4 * gib_to_mib(1024);
    h.total_disk_gib = 4 * 7680.0;
    h.cpu_allocation_ratio = 4.0;
    h.ram_allocation_ratio = 1.0;
    return h;
}

schedule_request make_request() {
    schedule_request r;
    r.vm = vm_id(0);
    r.flavor = flavor_id(0);
    r.project = project_id(0);
    return r;
}

TEST(ComputeFilterTest, PassesWhenResourcesFree) {
    const flavor f = make_flavor(8, 64);
    const schedule_request req = make_request();
    const request_context ctx{req, f};
    const host_state h = make_host();
    EXPECT_TRUE(compute_filter().passes(h, ctx));
}

TEST(ComputeFilterTest, RejectsWhenVcpusExhausted) {
    const flavor f = make_flavor(8, 64);
    const schedule_request req = make_request();
    const request_context ctx{req, f};
    host_state h = make_host();
    h.vcpus_used = static_cast<core_count>(h.vcpu_capacity()) - 7;  // only 7 left
    EXPECT_FALSE(compute_filter().passes(h, ctx));
}

TEST(ComputeFilterTest, RejectsWhenRamExhausted) {
    const flavor f = make_flavor(8, 64);
    const schedule_request req = make_request();
    const request_context ctx{req, f};
    host_state h = make_host();
    h.ram_used_mib = h.total_ram_mib - gib_to_mib(63);
    EXPECT_FALSE(compute_filter().passes(h, ctx));
}

TEST(ComputeFilterTest, ExactFitPasses) {
    const flavor f = make_flavor(8, 64);
    const schedule_request req = make_request();
    const request_context ctx{req, f};
    host_state h = make_host();
    h.vcpus_used = static_cast<core_count>(h.vcpu_capacity()) - 8;
    h.ram_used_mib = h.total_ram_mib - gib_to_mib(64);
    EXPECT_TRUE(compute_filter().passes(h, ctx));
}

TEST(AvailabilityZoneFilterTest, NoConstraintPassesAll) {
    const flavor f = make_flavor(1, 1);
    const schedule_request req = make_request();
    const request_context ctx{req, f};
    EXPECT_TRUE(availability_zone_filter().passes(make_host(), ctx));
}

TEST(AvailabilityZoneFilterTest, EnforcesRequestedAz) {
    const flavor f = make_flavor(1, 1);
    schedule_request req = make_request();
    req.az = az_id(1);
    const request_context ctx{req, f};
    host_state h = make_host();
    EXPECT_FALSE(availability_zone_filter().passes(h, ctx));
    h.az = az_id(1);
    EXPECT_TRUE(availability_zone_filter().passes(h, ctx));
}

TEST(DatacenterFilterTest, EnforcesRequestedDc) {
    const flavor f = make_flavor(1, 1);
    schedule_request req = make_request();
    req.dc = dc_id(2);
    const request_context ctx{req, f};
    host_state h = make_host();
    EXPECT_FALSE(datacenter_filter().passes(h, ctx));
    h.dc = dc_id(2);
    EXPECT_TRUE(datacenter_filter().passes(h, ctx));
}

TEST(DiskFilterTest, ChecksFreeDatastore) {
    const flavor f = make_flavor(1, 1, 1000.0);
    const schedule_request req = make_request();
    const request_context ctx{req, f};
    host_state h = make_host();
    EXPECT_TRUE(disk_filter().passes(h, ctx));
    h.disk_used_gib = h.total_disk_gib - 999.0;
    EXPECT_FALSE(disk_filter().passes(h, ctx));
}

// --- BB purpose routing (Section 3.1) ---------------------------------------

struct purpose_case {
    workload_class wc;
    double ram_gib;
    bb_purpose purpose;
    bool expected;
};

// Readable, stable test names (the default is a byte dump of the struct,
// padding included).
void PrintTo(const purpose_case& c, std::ostream* os) {
    *os << to_string(c.wc) << "_" << c.ram_gib << "GiB_on_"
        << to_string(c.purpose);
}

class BbPurposeFilterTest : public testing::TestWithParam<purpose_case> {};

TEST_P(BbPurposeFilterTest, RoutesFlavorsToPurposes) {
    const purpose_case& c = GetParam();
    const flavor f = make_flavor(4, c.ram_gib, 10.0, c.wc);
    const schedule_request req = make_request();
    const request_context ctx{req, f};
    host_state h = make_host();
    h.purpose = c.purpose;
    EXPECT_EQ(bb_purpose_filter().passes(h, ctx), c.expected);
}

INSTANTIATE_TEST_SUITE_P(
    Routing, BbPurposeFilterTest,
    testing::Values(
        // general purpose goes to general BBs only
        purpose_case{workload_class::general_purpose, 64, bb_purpose::general, true},
        purpose_case{workload_class::general_purpose, 64, bb_purpose::hana, false},
        purpose_case{workload_class::general_purpose, 64, bb_purpose::dedicated_xl, false},
        purpose_case{workload_class::general_purpose, 64, bb_purpose::gpu, false},
        // s4hana app servers share the general pool
        purpose_case{workload_class::s4hana_app, 128, bb_purpose::general, true},
        purpose_case{workload_class::s4hana_app, 128, bb_purpose::hana, false},
        // HANA DB flavors go to hana BBs
        purpose_case{workload_class::hana_db, 1024, bb_purpose::hana, true},
        purpose_case{workload_class::hana_db, 1024, bb_purpose::general, false},
        // >= 3 TB flavors require dedicated XL BBs regardless of class
        purpose_case{workload_class::hana_db, 3072, bb_purpose::dedicated_xl, true},
        purpose_case{workload_class::hana_db, 3072, bb_purpose::hana, false},
        purpose_case{workload_class::hana_db, 6144, bb_purpose::general, false}));

TEST(NumInstancesFilterTest, CapsInstances) {
    const flavor f = make_flavor(1, 1);
    const schedule_request req = make_request();
    const request_context ctx{req, f};
    host_state h = make_host();
    h.instances = 99;
    EXPECT_TRUE(num_instances_filter(100).passes(h, ctx));
    h.instances = 100;
    EXPECT_FALSE(num_instances_filter(100).passes(h, ctx));
}

TEST(NumInstancesFilterTest, RejectsNonPositiveLimit) {
    EXPECT_THROW(num_instances_filter(0), precondition_error);
}

TEST(ContentionFilterTest, RejectsHotHosts) {
    const flavor f = make_flavor(1, 1);
    const schedule_request req = make_request();
    const request_context ctx{req, f};
    host_state h = make_host();
    h.avg_cpu_contention_pct = 20.0;
    EXPECT_FALSE(contention_filter(15.0).passes(h, ctx));
    EXPECT_TRUE(contention_filter(25.0).passes(h, ctx));
    EXPECT_TRUE(contention_filter(20.0).passes(h, ctx));  // inclusive
}

TEST(ContentionFilterTest, RejectsNegativeThreshold) {
    EXPECT_THROW(contention_filter(-1.0), precondition_error);
}

TEST(DefaultFiltersTest, PipelineComposition) {
    const auto filters = make_default_filters();
    ASSERT_EQ(filters.size(), 5u);
    EXPECT_EQ(filters[0]->name(), "DatacenterFilter");
    EXPECT_EQ(filters[1]->name(), "AvailabilityZoneFilter");
    EXPECT_EQ(filters[2]->name(), "BBPurposeFilter");
    EXPECT_EQ(filters[3]->name(), "ComputeFilter");
    EXPECT_EQ(filters[4]->name(), "DiskFilter");
}

TEST(HostStateTest, CapacityHelpers) {
    host_state h = make_host();
    EXPECT_DOUBLE_EQ(h.vcpu_capacity(), 4 * 96 * 4.0);
    h.vcpus_used = 100;
    EXPECT_DOUBLE_EQ(h.free_vcpus(), 4 * 96 * 4.0 - 100);
    EXPECT_DOUBLE_EQ(h.ram_capacity_mib(),
                     static_cast<double>(4 * gib_to_mib(1024)));
    h.disk_used_gib = 100.0;
    EXPECT_DOUBLE_EQ(h.free_disk_gib(), 4 * 7680.0 - 100.0);
}

}  // namespace
}  // namespace sci

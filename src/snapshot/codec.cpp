// Versioned byte codec for engine_state.
//
// Layout: magic (u64) · format version (u32) · payload length (u64) ·
// FNV-1a checksum of the payload (u64) · payload.  All integers are
// little-endian fixed-width; doubles travel as their IEEE-754 bit
// patterns, so serialization is lossless and deterministic —
// equal states produce equal bytes and save·load·save is the identity.
//
// Every read is length-checked before it happens and every failure mode
// (bad magic, other version, truncation, checksum mismatch) throws
// snapshot_error with a message naming the offending field — a corrupted
// or other-version file can never walk the decoder into UB.  Only the
// current format_version is read: snapshots are transient artifacts.

#include <algorithm>
#include <concepts>
#include <cstring>
#include <fstream>
#include <sstream>
#include <type_traits>

#include "simcore/rng.hpp"
#include "snapshot/snapshot.hpp"

namespace sci::snapshot {
namespace {

constexpr std::uint64_t snapshot_magic = 0x53434953'4e415031ull;  // "SCISNAP1"

std::uint64_t checksum(std::span<const std::byte> payload) {
    return fnv1a(std::string_view(
        reinterpret_cast<const char*>(payload.data()), payload.size()));
}

// Both directions share one codec per type: codec(io, value) with `io` a
// byte_writer (value is const and gets written) or a byte_reader (value
// is filled in).  Scalars travel at their own fixed width; enums as u8;
// ids as i32 (-1 = invalid); containers as a u64 count plus elements.

template <typename T>
concept scalar = std::is_arithmetic_v<std::remove_const_t<T>>;

template <typename T, template <typename...> class Of>
constexpr bool is_instance = false;
template <template <typename...> class Of, typename... A>
constexpr bool is_instance<Of<A...>, Of> = true;

template <typename T, template <typename...> class Of>
concept instance_of = is_instance<std::remove_const_t<T>, Of>;

template <typename T, typename U>
concept of = std::same_as<std::remove_const_t<T>, U>;

class byte_writer {
public:
    static constexpr bool reading = false;

    template <scalar T>
    void num(const T& v) {
        append(&v, sizeof v);
    }
    void text(const std::string& s) {
        num(std::uint64_t{s.size()});
        append(s.data(), s.size());
    }
    /// Element count of a container about to be written.
    std::size_t count(std::size_t n, std::size_t /*min_bytes*/) {
        num(std::uint64_t{n});
        return n;
    }

    std::size_t size() const { return size_; }
    std::vector<std::byte> take() {
        buf_.resize(size_);
        return std::move(buf_);
    }

private:
    void append(const void* data, std::size_t n) {
        // Grow in 64 KiB steps: the vector's capacity still doubles, but
        // only bytes about to be written get touched, and a scalar append
        // stays a bounds check plus a fixed-size copy.
        if (buf_.size() - size_ < n) {
            buf_.resize(size_ + std::max<std::size_t>(n, 64 * 1024));
        }
        std::memcpy(buf_.data() + size_, data, n);
        size_ += n;
    }
    std::vector<std::byte> buf_;
    std::size_t size_ = 0;  ///< bytes written; buf_ may run ahead
};

class byte_reader {
public:
    static constexpr bool reading = true;

    explicit byte_reader(std::span<const std::byte> bytes) : bytes_(bytes) {}

    template <scalar T>
    void num(T& v) {
        if constexpr (std::is_same_v<T, bool>) {
            std::uint8_t b = 0;
            num(b);
            if (b > 1) throw snapshot_error("snapshot: malformed bool value");
            v = b != 0;
        } else {
            need(sizeof v, width_name<T>());
            std::memcpy(&v, bytes_.data() + pos_, sizeof v);
            pos_ += sizeof v;
        }
    }
    void text(std::string& s) {
        std::uint64_t n = 0;
        num(n);
        need(n, "string body");
        s.assign(reinterpret_cast<const char*>(bytes_.data() + pos_),
                 static_cast<std::size_t>(n));
        pos_ += static_cast<std::size_t>(n);
    }
    /// Element count of a container about to be read.  `min_bytes` is the
    /// smallest serialized size of one element — bounding the count by the
    /// remaining bytes rejects absurd lengths from corrupted input before
    /// any allocation.
    std::size_t count(std::size_t /*current*/, std::size_t min_bytes) {
        std::uint64_t n = 0;
        num(n);
        if (min_bytes > 0 && n > remaining() / min_bytes) {
            throw snapshot_error(
                "snapshot: truncated input (container length exceeds "
                "remaining bytes)");
        }
        return static_cast<std::size_t>(n);
    }

    std::size_t remaining() const { return bytes_.size() - pos_; }

private:
    template <typename T>
    static constexpr const char* width_name() {
        constexpr bool signed_int = std::is_integral_v<T> && std::is_signed_v<T>;
        if constexpr (sizeof(T) == 1) return "u8";
        if constexpr (sizeof(T) == 4) return signed_int ? "i32" : "u32";
        return signed_int ? "i64" : "u64";
    }
    void need(std::uint64_t n, const char* what) {
        if (n > remaining()) {
            throw snapshot_error(std::string("snapshot: truncated input "
                                             "(reading ") +
                                 what + ")");
        }
    }

    std::span<const std::byte> bytes_;
    std::size_t pos_ = 0;
};

template <typename IO, typename... T>
void fields(IO& io, T&... v) {
    (codec(io, v), ...);
}

/// Serialized size of a default-constructed T — the smallest any element
/// can take (every container empty, every optional disengaged).
template <typename T>
std::size_t min_bytes() {
    static const std::size_t n = [] {
        byte_writer w;
        const T probe{};
        codec(w, probe);
        return w.size();
    }();
    return n;
}

// --- generic values ----------------------------------------------------------

template <typename IO, scalar T>
void codec(IO& io, T& v) {
    io.num(v);
}

template <typename IO, typename T>
    requires std::is_enum_v<std::remove_const_t<T>>
void codec(IO& io, T& v) {
    std::uint8_t raw = static_cast<std::uint8_t>(v);
    io.num(raw);
    if constexpr (IO::reading) v = static_cast<T>(raw);
}

template <typename IO, instance_of<strong_id> T>
void codec(IO& io, T& v) {
    std::int32_t raw = v.valid() ? v.value() : -1;
    io.num(raw);
    if constexpr (IO::reading) v = T(raw);
}

template <typename IO, of<std::string> T>
void codec(IO& io, T& v) {
    io.text(v);
}

template <typename IO, instance_of<std::optional> T>
void codec(IO& io, T& v) {
    bool engaged = v.has_value();
    io.num(engaged);
    if (!engaged) return;
    if constexpr (IO::reading) v.emplace();
    codec(io, *v);
}

template <typename IO, instance_of<std::pair> T>
void codec(IO& io, T& v) {
    fields(io, v.first, v.second);
}

template <typename IO, instance_of<std::vector> T>
void codec(IO& io, T& v) {
    using element = typename std::remove_const_t<T>::value_type;
    const std::size_t n = io.count(v.size(), min_bytes<element>());
    if constexpr (IO::reading) v.resize(n);
    for (auto& e : v) codec(io, e);
}

// --- engine types ------------------------------------------------------------

void codec(auto& io, of<engine_config> auto& c) {
    engine_config::for_each_field(
        c, [&](const config_key&, auto& field) { codec(io, field); });
}

void codec(auto& io, of<fault_event> auto& e) {
    fields(io, e.t, e.kind, e.node, e.az, e.cpu_factor);
}

void codec(auto& io, of<engine_event> auto& e) {
    fields(io, e.act, e.id, e.fault);
}

void codec(auto& io, of<event_heap<engine_event>::entry> auto& e) {
    fields(io, e.at, e.seq, e.payload);
}

void codec(auto& io, of<vm_state_row> auto& v) {
    fields(io, v.flavor, v.state, v.created_at, v.deleted_at, v.placed_bb,
           v.placed_node, v.migration_count);
}

void codec(auto& io, of<provider_usage> auto& u) {
    fields(io, u.vcpus_used, u.ram_used_mib, u.disk_used_gib, u.instances);
}

void codec(auto& io, of<cluster_state_row> auto& c) {
    fields(io, c.migrations, c.aborts, c.usage_version);
}

void codec(auto& io, of<node_state_row> auto& n) {
    fields(io, n.accepting, n.residents, n.reserved_vcpus, n.reserved_ram_mib,
           n.reserved_disk_gib);
}

void codec(auto& io, of<running_stats::exact_state> auto& s) {
    fields(io, s.count, s.sum, s.min, s.max);
}

void codec(auto& io, of<sample> auto& s) {
    fields(io, s.t, s.value);
}

void codec(auto& io, of<series_state> auto& row) {
    fields(io, row.metric, row.labels, row.daily_first, row.daily,
           row.hourly_first, row.hourly, row.raw);
}

void codec(auto& io, of<lifecycle_event> auto& e) {
    fields(io, e.t, e.kind, e.vm, e.bb, e.from, e.to, e.reason);
}

void codec(auto& io, of<run_stats> auto& s) {
    run_stats::for_each_field(
        [&](const char*, auto field, auto) { codec(io, s.*field); });
}

void codec(auto& io, of<host_speculation> auto& s) {
    fields(io, s.valid, s.weigher_count, s.survivors, s.raws);
}

void codec(auto& io, of<batch_span> auto& s) {
    fields(io, s.first, s.last, s.size);
}

void codec(auto& io, of<speculation_batch::state> auto& b) {
    fields(io, b.active, b.vms, b.cursor, b.opened_at.shrink_version,
           b.opened_at.scrape_epoch, b.slots, b.claim_counts, b.spans);
}

void codec(auto& io, of<ha_controller::pending_row> auto& p) {
    fields(io, p.vm, p.crashed_at, p.attempts);
}

void codec(auto& io, of<ha_group_state> auto& g) {
    fields(io, g.due, g.victims);
}

void codec(auto& io, of<bp_queued_request> auto& q) {
    fields(io, q.vm, q.kind, q.priority, q.enqueued_at, q.deadline,
           q.deleted_at);
}

void codec(auto& io, of<engine_state> auto& s) {
    fields(io, s.config, s.region);
    fields(io, s.queue, s.now, s.next_seq, s.executed);
    fields(io, s.vms, s.provider_usages, s.allocations, s.placement_version,
           s.placement_shrink_version);
    fields(io, s.sched_scheduled, s.sched_no_valid_host, s.sched_retries,
           s.sched_transient_claim_failures, s.sched_speculative_placements,
           s.sched_speculation_misses, s.claim_counts);
    fields(io, s.clusters, s.nodes);
    fields(io, s.series, s.shard_counters, s.raw_sealed_through);
    fields(io, s.events, s.stats);
    fields(io, s.arrival_cursor, s.arrival_drain_seq, s.window_batch);
    fields(io, s.has_ha, s.ha_pending, s.ha_downtime, s.ha_crashed,
           s.ha_restarted, s.ha_abandoned, s.ha_cancelled,
           s.ha_failed_attempts, s.ha_groups, s.recovery_batch);
    fields(io, s.node_down, s.node_az_down, s.node_cpu_factor,
           s.has_mig_abort_rng, s.mig_abort_rng_state, s.has_claim_fault_rng,
           s.claim_fault_rng_state);
    fields(io, s.bb_contention_ewma);
    fields(io, s.has_bp, s.bp_queue, s.bp_regime, s.bp_transitions,
           s.bp_drain_seq, s.bp_drain_armed);
}

}  // namespace

std::vector<std::byte> serialize(const engine_state& state) {
    byte_writer payload_writer;
    codec(payload_writer, state);
    const std::vector<std::byte> payload = payload_writer.take();

    const std::uint64_t payload_len = payload.size();
    const std::uint64_t sum = checksum(payload);
    byte_writer w;
    fields(w, snapshot_magic, format_version, payload_len, sum);
    std::vector<std::byte> out = w.take();
    out.insert(out.end(), payload.begin(), payload.end());
    return out;
}

engine_state deserialize(std::span<const std::byte> bytes) {
    // magic u64 · version u32 · payload length u64 · checksum u64
    constexpr std::size_t header_size = 8 + 4 + 8 + 8;
    if (bytes.size() < header_size) {
        throw snapshot_error("snapshot: input shorter than the file header (" +
                             std::to_string(bytes.size()) + " of " +
                             std::to_string(header_size) + " bytes)");
    }
    byte_reader header(bytes);
    std::uint64_t magic = 0;
    header.num(magic);
    if (magic != snapshot_magic) {
        throw snapshot_error(
            "snapshot: bad magic — not a snapshot file (or corrupted "
            "header)");
    }
    std::uint32_t version = 0;
    header.num(version);
    if (version != format_version) {
        throw snapshot_error(
            "snapshot: unsupported format version " + std::to_string(version) +
            " (this build reads only version " +
            std::to_string(format_version) + ")");
    }
    std::uint64_t payload_len = 0;
    std::uint64_t expected_sum = 0;
    fields(header, payload_len, expected_sum);
    if (payload_len != header.remaining()) {
        throw snapshot_error(
            "snapshot: truncated input (header promises " +
            std::to_string(payload_len) + " payload bytes, " +
            std::to_string(header.remaining()) + " present)");
    }
    const std::span<const std::byte> payload =
        bytes.subspan(bytes.size() - static_cast<std::size_t>(payload_len));
    if (checksum(payload) != expected_sum) {
        throw snapshot_error(
            "snapshot: payload checksum mismatch (corrupted input)");
    }

    byte_reader r(payload);
    engine_state state;
    codec(r, state);
    if (r.remaining() != 0) {
        throw snapshot_error(
            "snapshot: trailing bytes after the payload (corrupted input)");
    }
    return state;
}

void save_file(const engine_state& state, const std::string& path) {
    const std::vector<std::byte> bytes = serialize(state);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
        throw snapshot_error("snapshot: cannot open '" + path +
                             "' for writing");
    }
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out) {
        throw snapshot_error("snapshot: short write to '" + path + "'");
    }
}

engine_state load_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        throw snapshot_error("snapshot: cannot open '" + path +
                             "' for reading");
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string data = buf.str();
    return deserialize(std::span<const std::byte>(
        reinterpret_cast<const std::byte*>(data.data()), data.size()));
}

}  // namespace sci::snapshot

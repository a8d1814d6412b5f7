#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <mutex>

#include "bench.hpp"

namespace perfbench {

void Report::set(const std::string& name, double value) { values_[name] = value; }

void Report::check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
        ++failed_;
        std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
    }
}

double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

void print_samples(const std::string& name, const std::vector<double>& v) {
    std::printf("  %-16s n=%zu median %.6g  q1 %.6g q3 %.6g  min %.6g max %.6g\n", name.c_str(),
                v.size(), median(v), quantile(v, 0.25), quantile(v, 0.75), quantile(v, 0),
                quantile(v, 1));
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

long llc_bytes() { return sysconf(_SC_LEVEL3_CACHE_SIZE); }

// ---- spans ----------------------------------------------------------------

namespace {

std::mutex g_span_mutex;
std::vector<SpanRecord> g_spans;  // guarded by g_span_mutex
bool g_spans_on = false;          // set before any span opens
std::uint64_t g_next_group = 1;   // guarded by g_span_mutex
thread_local std::uint64_t t_parent = 0;
thread_local std::uint64_t t_group = 0;

}  // namespace

void spans_enable(bool on) { g_spans_on = on; }

std::uint64_t spans_new_group() {
    std::lock_guard lock(g_span_mutex);
    t_group = g_next_group++;
    return t_group;
}

void spans_join_group(std::uint64_t group) { t_group = group; }

Span::Span(const char* layer, std::string name) {
    if (!g_spans_on) return;
    active_ = true;
    saved_parent_ = t_parent;
    std::lock_guard lock(g_span_mutex);
    index_ = g_spans.size();
    SpanRecord rec;
    rec.id = index_ + 1;
    rec.parent = t_parent;
    rec.group = t_group;
    rec.layer = layer;
    rec.name = std::move(name);
    rec.t0_ns = now_ns();
    g_spans.push_back(std::move(rec));
    t_parent = index_ + 1;
}

Span::~Span() {
    if (!active_) return;
    const std::int64_t t1 = now_ns();
    std::lock_guard lock(g_span_mutex);
    g_spans[index_].t1_ns = t1;
    t_parent = saved_parent_;
}

std::vector<SpanRecord> spans_snapshot() {
    std::lock_guard lock(g_span_mutex);
    return g_spans;
}

std::map<std::string, double> spans_self_ms() {
    const std::vector<SpanRecord> spans = spans_snapshot();
    std::vector<std::int64_t> child_ns(spans.size() + 1, 0);
    for (const SpanRecord& s : spans) child_ns[s.parent] += s.t1_ns - s.t0_ns;
    std::map<std::string, double> self;
    for (const SpanRecord& s : spans) {
        self[s.layer] += 1e-6 * static_cast<double>(s.t1_ns - s.t0_ns - child_ns[s.id]);
    }
    return self;
}

}  // namespace perfbench

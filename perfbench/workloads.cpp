// The three miniAMR workloads (sphere_refine, spheres_bulk, faces_shm):
// their fixed problems, the untraced end-to-end rounds and the traced run.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "amr/trace.hpp"
#include "bench.hpp"
#include "serve/protocol.hpp"

namespace perfbench {

namespace dc = dfamr::core;
using dfamr::amr::PhaseKind;
using dfamr::amr::Tracer;

namespace {

/// Hybrid layout shared by every workload: 2 ranks along x, each owning a
/// 1x2x2 brick of level-0 blocks, 2 workers per rank. The MPI-only layout
/// covers the same 2x2x2 global brick with 4 single-core ranks.
void set_layout(Config& cfg, int blocks_per_axis) {
    cfg.npx = 2;
    cfg.npy = cfg.npz = 1;
    cfg.init_x = blocks_per_axis / 2;
    cfg.init_y = cfg.init_z = blocks_per_axis;
    cfg.workers = 2;
}

Config mpi_layout(Config cfg) {
    cfg.npy = 2;
    cfg.init_y /= 2;
    cfg.workers = 1;
    return cfg;
}

/// The paper's section IV options for TAMPI+OSS: one message per face,
/// per-direction buffers, and the delayed checksum.
Config with_paper_options(Config cfg) {
    cfg.send_faces = true;
    cfg.separate_buffers = true;
    cfg.delayed_checksum = true;
    return cfg;
}

void scale_moves(Config& cfg, double factor) {
    for (auto& o : cfg.objects) {
        o.move = {o.move.x * factor, o.move.y * factor, o.move.z * factor};
    }
}

const char* variant_key(Variant v) {
    switch (v) {
        case Variant::MpiOnly: return "mpi";
        case Variant::ForkJoin: return "forkjoin";
        case Variant::TampiOss: return "tampi";
    }
    return "?";
}

const Config& config_for(const Problem& p, Variant v) {
    return v == Variant::MpiOnly ? p.mpi : (v == Variant::ForkJoin ? p.hybrid : p.tampi);
}

dc::RunOptions inproc_options() {
    dc::RunOptions o;
    o.ignore_launch_env = true;
    return o;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
    return !a.empty() && a == b;
}

/// Reduction order differs between 2 and 4 ranks, so the MPI-only checksums
/// agree with the 2-rank ones to rounding only.
bool close(const std::vector<double>& a, const std::vector<double>& b) {
    if (a.size() != b.size() || a.empty()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (!(std::fabs(a[i] - b[i]) <= 1e-12 * std::fabs(b[i]))) return false;
    }
    return true;
}

struct Timed {
    dc::RunResult result;
    double call_s = 0;  // wall time of the whole run_variant call
};

Timed timed_run(const Config& cfg, Variant v, const dc::RunOptions& opts,
                Tracer* tracer = nullptr) {
    // Hand memory freed by earlier runs back to the system first, so every
    // run starts from the same allocator state, as in a fresh process.
    malloc_trim(0);
    Span span("core", std::string("run_variant.") + variant_key(v));
    const std::int64_t t0 = now_ns();
    Timed t;
    t.result = dc::run_variant(cfg, v, tracer, nullptr, opts);
    t.call_s = seconds_since(t0);
    return t;
}

/// Reference checksums of a problem: every variant's inproc run, checked
/// against each other. The timed runs of a variant must reproduce its
/// reference bit for bit.
struct References {
    std::vector<double> by_variant[3];
};

References make_references(const Problem& p, Report& report) {
    References refs;
    const dc::RunOptions inproc = inproc_options();
    // 2-rank MPI-only twin: same decomposition as the hybrids, so all three
    // variants must agree bit for bit.
    Config mpi2 = p.hybrid;
    mpi2.workers = 1;
    const dc::RunResult twin = timed_run(mpi2, Variant::MpiOnly, inproc).result;
    report.check(twin.validation_ok, "MPI-only 2-rank reference validation");
    for (const Variant v : {Variant::MpiOnly, Variant::ForkJoin, Variant::TampiOss}) {
        const dc::RunResult r = timed_run(config_for(p, v), v, inproc).result;
        auto& ref = refs.by_variant[static_cast<int>(v)];
        ref = r.checksums;
        report.check(r.validation_ok, std::string(variant_key(v)) + " reference validation");
        if (v == Variant::MpiOnly) {
            report.check(close(ref, twin.checksums),
                         "MPI-only 4-rank checksums vs the 2-rank decomposition");
        } else {
            report.check(same_bits(ref, twin.checksums),
                         std::string(variant_key(v)) + " checksums bit-identical to MPI-only");
        }
    }
    return refs;
}

void check_run(const Problem& p, const References& refs, Variant v, const dc::RunResult& r,
               Report& report) {
    const std::string name = variant_key(v);
    const std::string what = p.compare_inproc ? " vs its inproc twin" : " vs the reference";
    report.check(r.validation_ok && r.completed(), name + " validation");
    report.check(same_bits(r.checksums, refs.by_variant[static_cast<int>(v)]),
                 name + " checksums" + what);
}

}  // namespace

bool make_problem(const std::string& workload, std::uint64_t seed, Problem& out) {
    Config cfg;
    if (workload == "sphere_refine") {
        // Table I input: one sphere entering from a corner; small blocks,
        // refinement every timestep up to 3 levels, RCB load balancing on.
        cfg = dfamr::amr::single_sphere_input();
        set_layout(cfg, 2);
        cfg.nx = cfg.ny = cfg.nz = 8;
        cfg.num_vars = 8;
        cfg.num_tsteps = 5;
        cfg.stages_per_ts = 4;
        cfg.refine_freq = 1;
        cfg.num_refine = 3;
        cfg.objects[0].move = {0.8 / cfg.num_tsteps, 0.8 / cfg.num_tsteps, 0.8 / cfg.num_tsteps};
    } else if (workload == "spheres_bulk") {
        // Fig. 4/5 input: four spheres; large blocks, refinement rare and
        // one level deep, so the stencil and bulk pack/unpack dominate.
        cfg = dfamr::amr::four_spheres_input();
        set_layout(cfg, 2);
        cfg.nx = cfg.ny = cfg.nz = 16;
        cfg.num_vars = 20;
        const int canonical_tsteps = cfg.num_tsteps;
        cfg.num_tsteps = 6;
        cfg.stages_per_ts = 6;
        cfg.num_refine = 1;
        cfg.refine_freq = 3;
        scale_moves(cfg, static_cast<double>(canonical_tsteps) / cfg.num_tsteps);
    } else if (workload == "faces_shm") {
        // Many tiny blocks, one message per face, over the shm transport:
        // message count and progress dominate, kernels are small.
        cfg = dfamr::amr::single_sphere_input();
        set_layout(cfg, 4);
        cfg.nx = cfg.ny = cfg.nz = 4;
        cfg.num_vars = 8;
        cfg.num_tsteps = 8;
        cfg.stages_per_ts = 10;
        cfg.refine_freq = 2;
        cfg.num_refine = 1;
        cfg.send_faces = true;
        cfg.objects[0].move = {0.8 / cfg.num_tsteps, 0.8 / cfg.num_tsteps, 0.8 / cfg.num_tsteps};
        out.opts.transport = dfamr::mpi::TransportKind::Shm;
        out.compare_inproc = true;
    } else if (workload == "serve_mix") {
        // The solo problem of serve_mix: its flux-kernel job spec
        // (gaussian, gradient estimator) on the 2x2x2 level-0 brick of the
        // other workloads, 8x the blocks of a served job, so a solo run is
        // long enough to time.
        dfamr::serve::JobSpec spec;
        spec.scenario = "gaussian";
        spec.ranks = 2;
        spec.workers = 2;
        cfg = dfamr::serve::job_config(spec);
        set_layout(cfg, 2);
    } else {
        return false;
    }
    cfg.seed = seed;
    cfg.validate();
    out.hybrid = cfg;
    out.mpi = mpi_layout(cfg);
    out.tampi = with_paper_options(cfg);
    out.opts.ignore_launch_env = true;
    return true;
}

void measure_problem(const Problem& p, const Args& args, Report& report,
                     const std::function<void()>& after_round) {
    // Warm-up and references: every variant once, inproc (untimed).
    const References refs = make_references(p, report);
    if (p.compare_inproc) {
        // Warm the transport too (ring setup, first-touch of the segments).
        for (const Variant v : {Variant::MpiOnly, Variant::ForkJoin, Variant::TampiOss}) {
            check_run(p, refs, v, timed_run(config_for(p, v), v, p.opts).result, report);
        }
    }

    std::vector<double> wall[3], refine, setup;
    double busy_s = 0;
    int runs = 0;
    const std::int64_t t0 = now_ns();
    const Variant order[3] = {Variant::MpiOnly, Variant::ForkJoin, Variant::TampiOss};
    // Interleaved rounds, each starting at a different variant, so ambient
    // load lands on all variants alike. At least three rounds.
    for (int round = 0; round < 3 || seconds_since(t0) < args.seconds; ++round) {
        for (int k = 0; k < 3; ++k) {
            const Variant v = order[(round + k) % 3];
            const Timed t = timed_run(config_for(p, v), v, p.opts);
            check_run(p, refs, v, t.result, report);
            wall[static_cast<int>(v)].push_back(t.result.times.total);
            if (v == Variant::TampiOss) refine.push_back(t.result.times.refine);
            setup.push_back(t.call_s - t.result.times.total);
            busy_s += t.call_s;
            ++runs;
        }
        if (after_round) after_round();
        // Peak memory after a fixed amount of work (warm-up plus the three
        // rounds every run makes), so it does not depend on how many
        // rounds fit in the run.
        if (round == 2) report.set("peak_rss_mb", peak_rss_mb());
    }
    std::printf("%s: %d rounds, %d runs in %.1f s\n", args.workload.c_str(), runs / 3, runs,
                seconds_since(t0));
    for (const Variant v : order) {
        const std::string name = std::string(variant_key(v)) + ".wall_s";
        report.set(name, median(wall[static_cast<int>(v)]));
        print_samples(name, wall[static_cast<int>(v)]);
    }
    report.set("tampi.refine_s", median(refine));
    print_samples("tampi.refine_s", refine);
    if (!after_round) {
        report.set("setup_s", median(setup));
        report.set("jobs_per_s", runs / busy_s);
        print_samples("setup_s", setup);
    }
}

void trace_problem(const Problem& p, const Args& args, Report& report) {
    const dc::RunOptions& opts = p.opts;
    // Untraced runs of every variant: warm-up, phase times and the
    // reference the traced runs must reproduce.
    dc::RunResult plain[3];
    for (const Variant v : {Variant::MpiOnly, Variant::ForkJoin, Variant::TampiOss}) {
        spans_new_group();
        plain[static_cast<int>(v)] = timed_run(config_for(p, v), v, opts).result;
        report.check(plain[static_cast<int>(v)].validation_ok,
                     std::string(variant_key(v)) + " validation (untraced)");
    }
    const dc::RunResult& mpi = plain[0];
    const dc::RunResult& fj = plain[1];
    const dc::RunResult& tampi = plain[2];
    report.check(same_bits(fj.checksums, tampi.checksums), "forkjoin vs tampi checksums");
    report.set("core.mpi.comm_s", mpi.times.comm);
    report.set("core.mpi.stencil_s", mpi.times.stencil);
    report.set("core.forkjoin.comm_s", fj.times.comm);
    report.set("core.forkjoin.stencil_s", fj.times.stencil);
    report.set("core.checksum_s", mpi.times.checksum);

    // Program counters of the TAMPI+OSS run (the paper's variant).
    report.set("amr.blocks_split", static_cast<double>(tampi.counters.blocks_split));
    report.set("amr.blocks_merged", static_cast<double>(tampi.counters.blocks_merged));
    report.set("amr.blocks_moved", static_cast<double>(tampi.counters.blocks_moved));
    report.set("amr.final_blocks", static_cast<double>(tampi.final_blocks));
    const auto& s = tampi.sched;
    report.set("tasking.tasks_executed", static_cast<double>(s.tasks_executed));
    report.set("tasking.steals", static_cast<double>(s.steals));
    report.set("tasking.parks", static_cast<double>(s.parks));
    report.set("tasking.imm_succ_ratio",
               s.tasks_executed > 0 ? static_cast<double>(s.immediate_successor_hits) /
                                          static_cast<double>(s.tasks_executed)
                                    : 0.0);
    report.set("mpisim.messages", static_cast<double>(mpi.messages));
    report.set("mpisim.bytes", static_cast<double>(mpi.bytes));
    report.set("net.frames_sent", static_cast<double>(mpi.net.frames_sent));
    report.set("net.bytes_sent", static_cast<double>(mpi.net.bytes_sent));
    report.set("net.frames_per_msg",
               mpi.messages > 0 ? static_cast<double>(mpi.net.frames_sent) /
                                      static_cast<double>(mpi.messages)
                                : 0.0);
    report.set("net.rendezvous", static_cast<double>(mpi.net.rendezvous));

    // Traced runs: the program's tracer attached, busy time per phase kind.
    for (const Variant v : {Variant::MpiOnly, Variant::TampiOss}) {
        spans_new_group();
        Tracer tracer;
        tracer.enable(true);
        const dc::RunResult r = timed_run(config_for(p, v), v, opts, &tracer).result;
        report.check(r.validation_ok && same_bits(r.checksums, plain[static_cast<int>(v)].checksums),
                     std::string(variant_key(v)) + " traced run reproduces the untraced one");
        const dfamr::amr::TraceAnalysis a = tracer.analyze();
        const std::string base = std::string("trace.") + variant_key(v) + ".";
        std::vector<std::pair<double, std::string>> by_kind;
        for (int k = 0; k <= static_cast<int>(PhaseKind::NetProgress); ++k) {
            const auto kind = static_cast<PhaseKind>(k);
            const auto it = a.busy_ns_by_kind.find(kind);
            const double ms =
                it == a.busy_ns_by_kind.end() ? 0.0 : 1e-6 * static_cast<double>(it->second);
            report.set(base + dfamr::amr::to_string(kind) + "_ms", ms);
            by_kind.emplace_back(ms, dfamr::amr::to_string(kind));
        }
        report.set(base + "utilization", a.utilization);
        report.set(base + "idle_gap_ms", 1e-6 * static_cast<double>(a.largest_idle_gap_ns));
        std::sort(by_kind.rbegin(), by_kind.rend());
        std::printf("%s traced %s: %.3f s, lane time by kind (ms):", args.workload.c_str(),
                    variant_key(v), r.times.total);
        for (const auto& [ms, kind] : by_kind) {
            if (ms > 0) std::printf(" %s=%.1f", kind.c_str(), ms);
        }
        std::printf(" (recv, comm_wait, net_progress are waiting)\n");
    }

    // Tracing overhead: median of traced/untraced over interleaved pairs,
    // alternating which side of a pair runs first.
    std::vector<double> ratios;
    for (int pair = 0; pair < 5; ++pair) {
        spans_new_group();
        double plain_s = 0, traced_s = 0;
        for (int side = 0; side < 2; ++side) {
            const bool traced = (side == 0) == (pair % 2 == 0);
            Tracer tracer;
            tracer.enable(traced);
            const dc::RunResult r =
                timed_run(p.tampi, Variant::TampiOss, opts, traced ? &tracer : nullptr).result;
            report.check(r.validation_ok && same_bits(r.checksums, tampi.checksums),
                         "tampi overhead-pair run reproduces the reference");
            (traced ? traced_s : plain_s) = r.times.total;
        }
        ratios.push_back(traced_s / plain_s);
    }
    report.set("trace.overhead_frac", median(ratios) - 1.0);
    std::printf("%s traced: tampi %.3f s, overhead pairs %.3f..%.3f\n", args.workload.c_str(),
                tampi.times.total, quantile(ratios, 0), quantile(ratios, 1));
}

}  // namespace perfbench

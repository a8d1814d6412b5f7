// Per-layer microbenchmarks: timed calls into each module's public API
// after warm-up, normalised per unit of work at the block shape of the
// workload being measured. Each figure is the median over repetitions.
#include <algorithm>
#include <cmath>

#include "amr/block.hpp"
#include "amr/comm_plan.hpp"
#include "amr/mesh.hpp"
#include "amr/structure.hpp"
#include "bench.hpp"
#include "mpisim/mpi.hpp"
#include "resilience/checkpoint.hpp"
#include "scenario/problem_generator.hpp"
#include "scenario/refinement_condition.hpp"
#include "tampi/tampi.hpp"
#include "tasking/runtime.hpp"

namespace perfbench {

namespace amr = dfamr::amr;
namespace mpi = dfamr::mpi;
namespace tk = dfamr::tasking;

namespace {

constexpr int kReps = 5;
constexpr std::int64_t kMinBatchNs = 20'000'000;  // 20 ms per repetition

/// Keeps results alive so the timed calls are not optimised away.
double g_sink = 0;

// ---- amr kernels ---------------------------------------------------------

void measure_block_kernels(const Config& cfg, std::uint64_t seed, Report& report) {
    const amr::BlockShape shape{cfg.nx, cfg.ny, cfg.nz, cfg.num_vars};
    const int vars = cfg.num_vars;
    const dfamr::Box box{{0, 0, 0}, {0.5, 0.5, 0.5}};
    amr::Block a(amr::BlockKey{1, {0, 0, 0}}, shape);
    amr::Block b(amr::BlockKey{1, {0, 0, 0}}, shape);
    a.init_cells(box, seed);
    b.init_cells(box, seed + 1);
    const double cellvars = static_cast<double>(cfg.cells_interior()) * vars;

    std::vector<amr::FaceGeom> faces;  // every axis, side, level relation and quarter
    for (int axis = 0; axis < 3; ++axis) {
        for (const int sense : {-1, 1}) {
            faces.push_back({axis, sense, amr::FaceRel::Same, 0});
            for (int quad = 0; quad < 4; ++quad) {
                faces.push_back({axis, sense, amr::FaceRel::Finer, quad});
                faces.push_back({axis, sense, amr::FaceRel::Coarser, quad});
            }
        }
    }
    {
        Span span("amr", "Block::copy_face_from");
        report.set("amr.copy_face_ns_per_value", median_ns_per_op(kReps, kMinBatchNs, [&] {
            std::int64_t values = 0;
            for (const amr::FaceGeom& g : faces) {
                a.copy_face_from(b, g, 0, vars);
                values += a.face_value_count(g, vars);
            }
            return values;
        }));
    }
    std::vector<amr::FaceGeom> same;
    for (const amr::FaceGeom& g : faces) {
        if (g.rel == amr::FaceRel::Same) same.push_back(g);
    }
    std::vector<double> buf(static_cast<std::size_t>(shape.total_cells()));
    {
        Span span("amr", "Block::pack_face");
        report.set("amr.pack_ns_per_value", median_ns_per_op(kReps, kMinBatchNs, [&] {
            std::int64_t values = 0;
            for (const amr::FaceGeom& g : same) {
                const std::int64_t n = a.face_value_count(g, vars);
                a.pack_face(g, 0, vars, std::span<double>(buf.data(), static_cast<std::size_t>(n)));
                values += n;
            }
            return values;
        }));
    }
    {
        Span span("amr", "Block::unpack_face");
        report.set("amr.unpack_ns_per_value", median_ns_per_op(kReps, kMinBatchNs, [&] {
            std::int64_t values = 0;
            for (const amr::FaceGeom& g : same) {
                const std::int64_t n = a.face_value_count(g, vars);
                a.unpack_face(g, 0, vars,
                              std::span<const double>(buf.data(), static_cast<std::size_t>(n)));
                values += n;
            }
            return values;
        }));
    }
    std::int64_t flops = 0;
    {
        Span span("amr", "Block::apply_stencil");
        report.set("amr.stencil_ns_per_cellvar", median_ns_per_op(kReps, kMinBatchNs, [&] {
            flops = a.apply_stencil(cfg.stencil, 0, vars);
            return static_cast<std::int64_t>(cellvars);
        }));
    }
    // Computed, not measured: the sweep must read every cell of the block
    // (ghosts included) and write every interior cell once.
    const double bytes =
        8.0 * static_cast<double>(vars) * static_cast<double>(cfg.cells_with_ghosts() + cfg.cells_interior());
    report.set("amr.stencil_flops_per_byte", static_cast<double>(flops) / bytes);
    {
        Span span("amr", "Block::fill_from_parent");
        report.set("amr.split_ns_per_cellvar", median_ns_per_op(kReps, kMinBatchNs, [&] {
            for (int oct = 0; oct < 8; ++oct) b.fill_from_parent(a, oct);
            return static_cast<std::int64_t>(8 * cellvars);
        }));
    }
    {
        Span span("amr", "Block::absorb_child");
        report.set("amr.merge_ns_per_cellvar", median_ns_per_op(kReps, kMinBatchNs, [&] {
            for (int oct = 0; oct < 8; ++oct) a.absorb_child(b, oct);
            // absorb_child writes one octant of the parent per call.
            return static_cast<std::int64_t>(cellvars);
        }));
    }
    {
        Span span("amr", "Block::checksum");
        report.set("amr.checksum_ns_per_cellvar", median_ns_per_op(kReps, kMinBatchNs, [&] {
            g_sink += a.checksum(0, vars);
            return static_cast<std::int64_t>(cellvars);
        }));
    }
}

void measure_structure(const Config& cfg, Report& report) {
    Config c = cfg;
    if (c.objects.empty()) {
        // Field-driven problems mark from data; replay the paper's sphere
        // so the planner has object-driven work at this shape.
        c.objects = amr::single_sphere_input().objects;
    }
    const int phases = std::max(1, c.refine_freq > 0 ? c.num_tsteps / c.refine_freq : 1);
    const int steps = std::max(1, c.refine_freq);
    amr::GlobalStructure final_structure(c);
    std::vector<double> per_round_us;
    {
        Span span("amr", "GlobalStructure::plan_refine_round+apply_refine_round");
        for (int rep = 0; rep < kReps; ++rep) {
            amr::GlobalStructure gs(c);
            auto objects = c.objects;
            std::int64_t ns = 0;
            int rounds = 0;
            for (int ph = 0; ph < phases; ++ph) {
                for (int s = 0; s < steps; ++s) {
                    for (auto& o : objects) o.step();
                }
                for (int r = 0; r < c.max_block_change(); ++r) {
                    const std::int64_t t0 = now_ns();
                    const amr::RefineRound round = gs.plan_refine_round(objects, c.uniform_refine);
                    if (!round.empty()) gs.apply_refine_round(round);
                    ns += now_ns() - t0;
                    ++rounds;
                    if (round.empty()) break;
                }
            }
            per_round_us.push_back(1e-3 * static_cast<double>(ns) / rounds);
            if (rep == 0) final_structure = gs;
        }
    }
    report.set("amr.plan_refine_us", median(per_round_us));
    {
        Span span("amr", "GlobalStructure::rcb_partition");
        report.set("amr.rcb_partition_us", 1e-3 * median_ns_per_op(kReps, kMinBatchNs, [&] {
            g_sink += static_cast<double>(final_structure.rcb_partition().size());
            return std::int64_t{1};
        }));
    }
    const amr::BlockShape shape{c.nx, c.ny, c.nz, c.num_vars};
    amr::CommPlanOptions opts;
    opts.send_faces = c.send_faces;
    opts.max_comm_tasks = c.max_comm_tasks;
    {
        Span span("amr", "CommPlan::CommPlan");
        report.set("amr.comm_plan_us", 1e-3 * median_ns_per_op(kReps, kMinBatchNs, [&] {
            const amr::CommPlan plan(final_structure, shape, 0, opts);
            g_sink += static_cast<double>(plan.direction(0).copies.size());
            return std::int64_t{1};
        }));
    }
}

/// Single-thread STREAM triad a = b + s*c. Each array is 4x the last-level
/// cache if that fits in 128 MiB, else 128 MiB; both sizes are reported.
/// Bytes are computed (24 per element), as in STREAM.
void measure_triad(Report& report) {
    const long llc = llc_bytes();
    const std::size_t want = llc > 0 ? 4 * static_cast<std::size_t>(llc) : (128u << 20);
    const std::size_t bytes = std::min<std::size_t>(want, 128u << 20);
    const std::size_t n = bytes / sizeof(double);
    std::vector<double> x(n, 1.0), y(n, 2.0), z(n, 0.0);
    std::vector<double> gbps;
    {
        Span span("bench", "stream_triad");
        for (int rep = 0; rep < kReps; ++rep) {
            const double s = 1.0 + rep;
            const std::int64_t t0 = now_ns();
            for (std::size_t i = 0; i < n; ++i) z[i] = x[i] + s * y[i];
            const double dt = 1e-9 * static_cast<double>(now_ns() - t0);
            gbps.push_back(24.0 * static_cast<double>(n) / dt * 1e-9);
            g_sink += z[n / 2];
        }
    }
    report.set("stream.triad_gbps", median(gbps));
    report.set("stream.array_mib", static_cast<double>(bytes) / (1 << 20));
    report.set("stream.llc_mib", static_cast<double>(std::max(0L, llc)) / (1 << 20));
}

// ---- scenario ------------------------------------------------------------

void measure_scenario(const Config& cfg, std::uint64_t seed, Report& report) {
    const amr::BlockShape shape{cfg.nx, cfg.ny, cfg.nz, cfg.num_vars};
    Config c = cfg;
    c.scenario = "gaussian";
    const auto* gen = dfamr::scenario::find_generator(c.scenario);
    const dfamr::Box box{{0.25, 0.25, 0.25}, {0.5, 0.5, 0.5}};
    amr::Block blk(amr::BlockKey{1, {0, 0, 0}}, shape);
    blk.init_cells(box, seed);
    gen->init_block(blk, box);
    const double dt = gen->stable_dt(c);
    const double cellvars = static_cast<double>(cfg.cells_interior()) * cfg.num_vars;
    {
        Span span("scenario", "ProblemGenerator::advance");
        report.set("scenario.advance_ns_per_cellvar", median_ns_per_op(kReps, kMinBatchNs, [&] {
            g_sink += static_cast<double>(gen->advance(blk, box, 0, cfg.num_vars, dt));
            return static_cast<std::int64_t>(cellvars);
        }));
    }
    dfamr::scenario::ScoreContext ctx;
    std::vector<double> per_cell;
    for (const char* name : {"gradient", "curvature"}) {
        const auto* cond = dfamr::scenario::find_condition(name);
        Span span("scenario", std::string("RefinementCondition::score.") + name);
        per_cell.push_back(median_ns_per_op(kReps, kMinBatchNs, [&] {
            g_sink += cond->score(&blk, box, ctx);
            return cfg.cells_interior();
        }));
    }
    report.set("scenario.score_ns_per_cell", 0.5 * (per_cell[0] + per_cell[1]));
}

// ---- tasking: Task Bench patterns ------------------------------------------

/// A double on its own cache line, so task dependency regions never overlap.
struct alignas(64) Cell {
    double v = 0;
};

double spin(std::int64_t iters) {
    double x = 1.0;
    for (std::int64_t i = 0; i < iters; ++i) x = x * 1.0000001 + 1e-9;
    return x;
}

/// One stencil-1D graph: `steps` rows of `width` tasks; task (t, i) reads
/// cells i-1..i+1 of row t-1 and writes cell i of row t. Returns seconds.
double run_stencil1d(tk::Runtime& rt, int width, int steps, std::int64_t spin_iters) {
    std::vector<Cell> rows[2] = {std::vector<Cell>(static_cast<std::size_t>(width)),
                                 std::vector<Cell>(static_cast<std::size_t>(width))};
    const std::int64_t t0 = now_ns();
    for (int t = 0; t < steps; ++t) {
        auto& src = rows[t % 2];
        auto& dst = rows[(t + 1) % 2];
        for (int i = 0; i < width; ++i) {
            const int lo = std::max(0, i - 1), hi = std::min(width - 1, i + 1);
            std::vector<tk::Dep> deps;
            for (int j = lo; j <= hi; ++j) deps.push_back(tk::in(&src[j].v, sizeof(double)));
            deps.push_back(tk::out(&dst[i].v, sizeof(double)));
            rt.submit(
                [&src, &dst, i, lo, hi, spin_iters] {
                    double s = spin_iters > 0 ? spin(spin_iters) * 1e-30 : 0.0;
                    for (int j = lo; j <= hi; ++j) s += src[j].v;
                    dst[i].v = s / 3;
                },
                std::move(deps), "stencil1d");
        }
    }
    rt.taskwait();
    return 1e-9 * static_cast<double>(now_ns() - t0);
}

void measure_tasking(int workers, Report& report) {
    tk::Runtime rt(workers);
    constexpr int kTasks = 4000;
    {
        Span span("tasking", "Runtime::submit.trivial");
        report.set("tasking.trivial_ns_per_task", median_ns_per_op(kReps, kMinBatchNs, [&] {
            for (int i = 0; i < kTasks; ++i) rt.submit([] {}, {}, "trivial");
            rt.taskwait();
            return std::int64_t{kTasks};
        }));
    }
    Cell x;
    {
        Span span("tasking", "Runtime::submit.chain");
        report.set("tasking.chain_ns_per_task", median_ns_per_op(kReps, kMinBatchNs, [&] {
            for (int i = 0; i < kTasks; ++i) {
                rt.submit([&x] { x.v += 1; }, {tk::inout(&x.v, sizeof(double))}, "chain");
            }
            rt.taskwait();
            return std::int64_t{kTasks};
        }));
    }
    {
        Span span("tasking", "Runtime::submit.fan");
        report.set("tasking.fan_ns_per_task", median_ns_per_op(kReps, kMinBatchNs, [&] {
            rt.submit([&x] { x.v += 1; }, {tk::out(&x.v, sizeof(double))}, "fan.root");
            for (int i = 1; i < kTasks; ++i) {
                rt.submit([] {}, {tk::in(&x.v, sizeof(double))}, "fan.leaf");
            }
            rt.taskwait();
            return std::int64_t{kTasks};
        }));
    }
    const int width = 4 * workers;
    {
        Span span("tasking", "Runtime::submit.stencil1d");
        report.set("tasking.stencil1d_ns_per_task", median_ns_per_op(kReps, kMinBatchNs, [&] {
            run_stencil1d(rt, width, kTasks / width, 0);
            return std::int64_t{kTasks / width * width};
        }));
    }

    // METG(50%): the smallest task duration at which stencil-1D still runs
    // at half the ideal rate on `workers` workers (Task Bench).
    std::int64_t per_us = 0;
    {
        const std::int64_t probe = 2'000'000;
        std::vector<double> ns;
        for (int r = 0; r < kReps; ++r) {
            const std::int64_t t0 = now_ns();
            g_sink += spin(probe) * 1e-30;
            ns.push_back(static_cast<double>(now_ns() - t0));
        }
        per_us = std::max<std::int64_t>(1, static_cast<std::int64_t>(1e3 * probe / median(ns)));
    }
    Span span("tasking", "Runtime::submit.metg");
    double metg = 0, prev_grain = 0, prev_eff = 0;
    for (double grain_us = 0.5; grain_us <= 4096; grain_us *= 2) {
        const int steps = std::max(8, static_cast<int>(20000.0 / grain_us / width * workers));
        std::vector<double> eff;
        for (int r = 0; r < 3; ++r) {
            const double wall = run_stencil1d(rt, width, steps,
                                              static_cast<std::int64_t>(grain_us * static_cast<double>(per_us)));
            eff.push_back(1e-6 * grain_us * width * steps / (wall * workers));
        }
        const double e = median(eff);
        if (e >= 0.5) {
            // Interpolate in log(grain) between the last failing point and this one.
            metg = grain_us;
            if (prev_grain > 0 && e > prev_eff) {
                const double f = (0.5 - prev_eff) / (e - prev_eff);
                metg = prev_grain * std::pow(grain_us / prev_grain, f);
            }
            break;
        }
        prev_grain = grain_us;
        prev_eff = e;
        metg = grain_us;
    }
    report.set("tasking.metg_us", metg);
}

// ---- messaging ------------------------------------------------------------

/// Half round trip of `bytes` between ranks 0 and 1, in microseconds.
double pingpong_us(mpi::World& world, std::size_t bytes, int iters) {
    std::vector<double> per_rep;
    world.run([&](mpi::Communicator& comm) {
        if (comm.rank() > 1) return;
        std::vector<std::byte> buf(bytes);
        const int peer = 1 - comm.rank();
        for (int rep = 0; rep <= kReps; ++rep) {  // rep 0 warms up
            comm.barrier();
            const std::int64_t t0 = now_ns();
            for (int i = 0; i < iters; ++i) {
                if (comm.rank() == 0) {
                    comm.send(buf.data(), bytes, peer, 7);
                    comm.recv(buf.data(), bytes, peer, 7);
                } else {
                    comm.recv(buf.data(), bytes, peer, 7);
                    comm.send(buf.data(), bytes, peer, 7);
                }
            }
            if (comm.rank() == 0 && rep > 0) {
                per_rep.push_back(1e-3 * static_cast<double>(now_ns() - t0) / (2.0 * iters));
            }
        }
    });
    return median(per_rep);
}

/// Streaming bandwidth of 1 MiB messages from rank 0 to rank 1, GB/s.
double bandwidth_gbps(mpi::World& world) {
    constexpr std::size_t kBytes = 1 << 20;
    constexpr int kMsgs = 32;
    std::vector<double> per_rep;
    world.run([&](mpi::Communicator& comm) {
        if (comm.rank() > 1) return;
        std::vector<std::byte> buf(kBytes);
        char ack = 0;
        for (int rep = 0; rep <= kReps; ++rep) {
            comm.barrier();
            const std::int64_t t0 = now_ns();
            if (comm.rank() == 0) {
                for (int i = 0; i < kMsgs; ++i) comm.send(buf.data(), kBytes, 1, 8);
                comm.recv(&ack, 1, 1, 9);
                if (rep > 0) {
                    per_rep.push_back(static_cast<double>(kBytes) * kMsgs /
                                      static_cast<double>(now_ns() - t0));
                }
            } else {
                for (int i = 0; i < kMsgs; ++i) comm.recv(buf.data(), kBytes, 0, 8);
                comm.send(&ack, 1, 0, 9);
            }
        }
    });
    return median(per_rep);
}

void measure_mpisim(Report& report) {
    {
        mpi::World world(2);
        Span span("mpisim", "Communicator::send/recv");
        report.set("mpisim.pingpong_64B_us", pingpong_us(world, 64, 2000));
        report.set("mpisim.pingpong_4KiB_us", pingpong_us(world, 4096, 1000));
        report.set("mpisim.pingpong_64KiB_us", pingpong_us(world, 65536, 300));
        report.set("mpisim.bw_1MiB_gbps", bandwidth_gbps(world));
    }
    mpi::World world(4);
    std::vector<double> per_rep;
    Span span("mpisim", "Communicator::allreduce");
    world.run([&](mpi::Communicator& comm) {
        constexpr int kIters = 1000;
        double in = comm.rank(), out = 0;
        for (int rep = 0; rep <= kReps; ++rep) {
            comm.barrier();
            const std::int64_t t0 = now_ns();
            for (int i = 0; i < kIters; ++i) comm.allreduce(&in, &out, 1, mpi::Op::Sum);
            if (comm.rank() == 0 && rep > 0) {
                per_rep.push_back(1e-3 * static_cast<double>(now_ns() - t0) / kIters);
            }
        }
    });
    report.set("mpisim.allreduce_us", median(per_rep));
}

void measure_net(Report& report) {
    for (const auto& [kind, key] : {std::pair{mpi::TransportKind::Shm, "shm"},
                                    std::pair{mpi::TransportKind::Tcp, "tcp"}}) {
        mpi::WorldOptions wo;
        wo.transport = kind;
        wo.ignore_launch_env = true;
        mpi::World world(2, wo);
        const std::string base = std::string("net.") + key + ".";
        Span span("net", std::string("loopback world.") + key);
        report.set(base + "pingpong_64B_us", pingpong_us(world, 64, 1000));
        report.set(base + "pingpong_64KiB_us", pingpong_us(world, 65536, 200));
        report.set(base + "bw_1MiB_gbps", bandwidth_gbps(world));
        if (kind == mpi::TransportKind::Tcp) {
            // Just above the eager/rendezvous threshold.
            report.set(base + "pingpong_rndv_us",
                       pingpong_us(world, wo.rendezvous_threshold + 4096, 200));
        }
    }
}

/// TAMPI-bound ping-pong: each message is sent or received by a task whose
/// completion is bound to the request. With `pending` > 0, that many
/// unrelated bound receives stay outstanding on each rank during the loop,
/// so every poll walks them.
double tampi_pingpong_us(int pending) {
    constexpr int kIters = 1000;
    constexpr int kJunkTag = 1 << 20;
    std::vector<double> per_rep;
    mpi::World world(2);
    world.run([&](mpi::Communicator& comm) {
        tk::Runtime rt(1);
        dfamr::tampi::Tampi tampi(rt);
        const int peer = 1 - comm.rank();
        std::vector<Cell> junk(static_cast<std::size_t>(pending));
        for (int k = 0; k < pending; ++k) {
            double* p = &junk[static_cast<std::size_t>(k)].v;
            rt.submit([&tampi, &comm, p, peer, k] { tampi.irecv(comm, p, sizeof(double), peer, kJunkTag + k); },
                      {tk::out(p, sizeof(double))}, "pending");
        }
        Cell buf[8];  // 64 bytes
        for (int rep = 0; rep <= kReps; ++rep) {
            comm.barrier();
            const std::int64_t t0 = now_ns();
            for (int i = 0; i < kIters; ++i) {
                auto send = [&] {
                    rt.submit([&, i] { tampi.isend(comm, buf, 64, peer, i); }, {tk::in(buf, sizeof buf)}, "send");
                };
                auto recv = [&] {
                    rt.submit([&, i] { tampi.irecv(comm, buf, 64, peer, i); }, {tk::out(buf, sizeof buf)}, "recv");
                };
                if (comm.rank() == 0) {
                    send();
                    recv();
                } else {
                    recv();
                    send();
                }
            }
            rt.taskwait_on({tk::inout(buf, sizeof buf)});
            if (comm.rank() == 0 && rep > 0) {
                per_rep.push_back(1e-3 * static_cast<double>(now_ns() - t0) / (2.0 * kIters));
            }
        }
        for (int k = 0; k < pending; ++k) {
            const double v = k;
            comm.send(&v, sizeof v, peer, kJunkTag + k);
        }
        rt.taskwait();
    });
    return median(per_rep);
}

void measure_tampi(Report& report) {
    Span span("tampi", "Tampi::isend/irecv");
    report.set("tampi.bound_pingpong_64B_us", tampi_pingpong_us(0));
    report.set("tampi.pending_pingpong_64B_us", tampi_pingpong_us(64));
}

// ---- resilience ------------------------------------------------------------

void measure_resilience(const Config& cfg, Report& report) {
    // One rank owning the workload's whole level-0 mesh.
    Config c = cfg;
    c.init_x *= c.npx;
    c.init_y *= c.npy;
    c.init_z *= c.npz;
    c.npx = c.npy = c.npz = 1;
    amr::Mesh mesh(c, 0);
    mesh.init_blocks();
    std::vector<std::byte> image;
    double serialize = 0, restore = 0;
    bool restored_all = true;
    mpi::World world(1);
    world.run([&](mpi::Communicator& comm) {
        dfamr::resilience::HardenedComm hc(comm, dfamr::resilience::RetryPolicy{});
        dfamr::resilience::CheckpointState st;
        st.config_fingerprint = dfamr::resilience::config_fingerprint(c);
        st.nranks = 1;
        st.objects = c.objects;
        st.owners = mesh.structure().leaves();
        {
            Span span("resilience", "serialize_rank_blocks+build_checkpoint");
            serialize = median_ns_per_op(kReps, kMinBatchNs, [&] {
                image = dfamr::resilience::build_checkpoint(
                    hc, st, dfamr::resilience::serialize_rank_blocks(mesh));
                return static_cast<std::int64_t>(image.size());
            });
        }
        Span span("resilience", "read_checkpoint_state+read_rank_blocks");
        restore = median_ns_per_op(kReps, kMinBatchNs, [&] {
            const auto state = dfamr::resilience::read_checkpoint_state(image);
            const auto blocks = dfamr::resilience::read_rank_blocks(image, 0);
            restored_all = restored_all && state.owners.size() == mesh.num_owned() &&
                           blocks.size() == mesh.num_owned();
            return static_cast<std::int64_t>(image.size());
        });
    });
    report.check(restored_all, "checkpoint image restores every block");
    // ns per byte -> MB/s
    report.set("resilience.serialize_mbps", 1e3 / serialize);
    report.set("resilience.restore_mbps", 1e3 / restore);
}

}  // namespace

void measure_layers(const Config& cfg, std::uint64_t seed, Report& report) {
    spans_new_group();
    measure_block_kernels(cfg, seed, report);
    measure_structure(cfg, report);
    measure_triad(report);
    measure_scenario(cfg, seed, report);
    measure_tasking(cfg.workers, report);
    measure_mpisim(report);
    measure_net(report);
    measure_tampi(report);
    measure_resilience(cfg, report);
    report.check(std::isfinite(g_sink), "microbenchmark results are finite");
}

}  // namespace perfbench

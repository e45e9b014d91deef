/**
 * @file
 * threaded_rw: closed-loop read/write serving on the ThreadedRuntime
 * with instant delivery (link delay, per-unit delay and jitter all
 * zero), so every millisecond is the program's own processing and
 * waiting.  Two client threads each own two objects of 4 x 4 KB
 * blocks; a round is one writeSync block replace followed by one
 * plain readSync from a rotating server.
 */

#include <memory>
#include <thread>

#include "bench.h"

namespace perfbench {

using namespace oceanstore;

namespace {

constexpr unsigned kClients = 2;
constexpr unsigned kObjectsPerClient = 2;
constexpr std::size_t kBlocks = 4;
constexpr std::size_t kBlockSize = 4096;
constexpr std::size_t kServers = 16;

struct ReadRec
{
    unsigned obj;
    std::uint64_t newest; //!< newest committed version when issued
    ReadResult res;
};

struct WriteRec
{
    unsigned obj;
    std::uint64_t expected; //!< version the write must produce
    WriteResult res;
};

struct Client
{
    explicit Client(SpanLog &l) : log(l) {}

    std::vector<ObjectHandle> handles;
    std::vector<ObjectModel> models;
    std::vector<WriteRec> writes;
    std::vector<ReadRec> reads;
    std::vector<double> writeWall;
    std::vector<double> readWall;
    SpanLog &log;
};

void
serve(Universe &u, Client &cl, unsigned id, std::size_t rounds,
      std::uint64_t seed)
{
    Rand r(seed);
    for (std::size_t i = 0; i < rounds; i++) {
        unsigned o = static_cast<unsigned>(r.below(kObjectsPerClient));
        std::size_t pos = r.below(kBlocks);
        std::uint64_t content = r.next();
        ObjectModel &model = cl.models[o];
        const ObjectHandle &h = cl.handles[o];
        std::uint64_t trace = (std::uint64_t{id} << 32) | i;
        std::uint32_t root = cl.log.begin("round", trace);

        Bytes plain = blockContent(content, kBlockSize);
        std::uint32_t s = cl.log.begin("makeReplaceUpdate", trace, root);
        Update up = h.makeReplaceUpdate(pos, plain, model.current(),
                                        Timestamp{i + 2, id});
        cl.log.end(s, kBlockSize);

        s = cl.log.begin("writeSync", trace, root);
        double t = wallNow();
        WriteResult wr = u.writeSync(up);
        cl.writeWall.push_back(wallNow() - t);
        cl.log.end(s, kBlockSize);
        cl.writes.push_back({o, model.current() + 1, wr});
        if (wr.completed && wr.committed &&
            wr.version == model.current() + 1)
            model.replace(pos, content);

        std::size_t from = (id * 7 + i) % kServers;
        s = cl.log.begin("read", trace, root);
        t = wallNow();
        ReadResult rr = u.readSync(from, h.guid());
        cl.readWall.push_back(wallNow() - t);
        cl.log.end(s);
        cl.reads.push_back({o, model.current(), std::move(rr)});
        cl.log.end(root);
    }
}

} // namespace

void
runThreadedRw(const Args &args, double t0, Report &rep)
{
    std::size_t rounds = args.scaled(300);
    SpanLog &checkLog = rep.newLog();
    LayerInputs in;

    UniverseConfig cfg;
    cfg.numServers = kServers;
    cfg.archiveOnCommit = false;
    cfg.runtime = RuntimeKind::Threaded;
    // Instant delivery: the link model adds no delay at all.
    cfg.threaded.baseLatency = 0.0;
    cfg.threaded.latencyPerUnit = 0.0;
    cfg.threaded.jitter = 0.0;
    cfg.threaded.bandwidth = 0.0;

    double t = wallNow();
    auto universe = std::make_unique<Universe>(cfg);
    Universe &u = *universe;
    in.bootWall = wallNow() - t;

    t = wallNow();
    Rand setupRand(args.seed);
    std::vector<std::unique_ptr<Client>> clients;
    for (unsigned c = 0; c < kClients; c++) {
        clients.push_back(std::make_unique<Client>(rep.newLog()));
        Client &cl = *clients.back();
        KeyPair user = u.makeUser();
        for (unsigned o = 0; o < kObjectsPerClient; o++) {
            cl.handles.push_back(u.createObject(
                user, "perfbench/rw-" + std::to_string(c) + "-" +
                          std::to_string(o)));
            ObjectModel m;
            m.blockSize = kBlockSize;
            std::vector<std::uint64_t> ids;
            for (std::size_t b = 0; b < kBlocks; b++)
                ids.push_back(setupRand.next());
            m.versions.push_back(ids);
            rep.attempted++;
            WriteResult wr =
                u.writeSync(initialContent(cl.handles.back(), m, c));
            if (!wr.committed || wr.version != 1)
                rep.fail("initial content of " +
                         cl.handles.back().name() + " did not commit");
            cl.models.push_back(std::move(m));
        }
    }
    in.populateWall = wallNow() - t;
    double setup = wallNow() - t0;

    // Measured region: both clients serving concurrently.
    in.counters.begin();
    std::uint64_t msgs0 = u.rt().totalMessages();
    std::uint64_t bytes0 = u.rt().totalBytes();
    double start = wallNow();
    std::vector<std::thread> pool;
    for (unsigned c = 0; c < kClients; c++)
        pool.emplace_back([&, c]() {
            serve(u, *clients[c], c, rounds,
                  mixSeed64(args.seed, c + 1));
        });
    for (auto &th : pool)
        th.join();
    double wall = wallNow() - start;
    in.measuredWall = wall;
    in.workerUtilization = u.rt().stats().workerUtilization;
    in.wireMessages = static_cast<double>(u.rt().totalMessages() - msgs0);
    in.wireBytes = static_cast<double>(u.rt().totalBytes() - bytes0);
    in.counters.end();

    // Checks against the model, outside the measured region.
    std::vector<double> writeWall, readWall;
    std::vector<ObjectHandle> handles;
    std::vector<ObjectModel> models;
    std::vector<std::uint64_t> committed;
    double done = 0;
    bool perturbed = false;
    for (auto &clp : clients) {
        Client &cl = *clp;
        std::vector<std::uint64_t> acked(kObjectsPerClient, 0);
        for (const WriteRec &w : cl.writes) {
            rep.attempted++;
            if (!w.res.completed || !w.res.committed) {
                rep.failed++;
                continue;
            }
            if (w.res.version != w.expected) {
                rep.fail("write acknowledged version " +
                         std::to_string(w.res.version) + ", expected " +
                         std::to_string(w.expected));
                continue;
            }
            acked[w.obj]++;
            done++;
        }
        for (const ReadRec &rd : cl.reads) {
            rep.attempted++;
            if (!rd.res.found) {
                rep.failed++;
                continue;
            }
            bool perturb = args.perturb == Perturb::Content && !perturbed;
            perturbed = perturbed || perturb;
            if (!checkContent(cl.handles[rd.obj], cl.models[rd.obj],
                              rd.res.version, rd.res.blocks, perturb,
                              cl.log, rep))
                continue;
            if (rd.res.version < rd.newest)
                in.staleReads++;
            done++;
        }
        writeWall.insert(writeWall.end(), cl.writeWall.begin(),
                         cl.writeWall.end());
        readWall.insert(readWall.end(), cl.readWall.begin(),
                        cl.readWall.end());
        for (unsigned o = 0; o < kObjectsPerClient; o++) {
            handles.push_back(cl.handles[o]);
            models.push_back(cl.models[o]);
            committed.push_back(acked[o]);
        }
    }
    std::vector<Bytes> states =
        checkFinal(u, handles, models, committed, args, checkLog, rep);
    universe.reset();

    double commits = 0;
    for (std::uint64_t c : committed)
        commits += static_cast<double>(c);
    auto &e = rep.endToEnd;
    e["setup_s"] = {setup, "s"};
    e["ops_per_s"] = {per(done, wall), "1/s"};
    e["write_p50_ms"] = {percentile(writeWall, 50) * 1e3, "ms"};
    e["write_p99_ms"] = {percentile(writeWall, 99) * 1e3, "ms"};
    e["read_p50_ms"] = {percentile(readWall, 50) * 1e3, "ms"};
    e["read_p99_ms"] = {percentile(readWall, 99) * 1e3, "ms"};
    e["ingest_MBps"] = {per(commits * kBlockSize / 1e6, wall), "MB/s"};

    if (args.trace) {
        in.ops = done;
        in.commits = commits;
        in.userBytes = commits * kBlockSize;
        layerMetrics(rep, in);
        dataPlaneMetrics(rep, states, 16, 32, args.seed);
    }
}

} // namespace perfbench

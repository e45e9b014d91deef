/**
 * @file
 * archive_ingest: the archival data plane on the SimRuntime.  48
 * servers with log-structured storage archive every commit (cipher,
 * SHA-1, Reed-Solomon, Merkle, log store).  Eight objects of
 * 16 x 4 KB blocks take seeded 4 KB block replaces; then every
 * archived version is restored, every server is crashed and
 * restarted (log replay), and a seeded sample of versions is
 * restored again.  The sim clock makes network waiting free, so the
 * wall time is the program's CPU.
 */

#include <memory>

#include "bench.h"

namespace perfbench {

using namespace oceanstore;

namespace {

constexpr std::size_t kObjects = 8;
constexpr std::size_t kBlocks = 16;
constexpr std::size_t kBlockSize = 4096;
constexpr std::size_t kServers = 48;
constexpr unsigned kDataFragments = 16;
constexpr unsigned kTotalFragments = 32;

/** Sum of every disk image: servers and primary-tier replicas. */
double
storedBytes(Universe &u, unsigned primaries)
{
    double total = 0;
    for (std::size_t i = 0; i < u.numServers(); i++)
        total += static_cast<double>(u.storageOf(i).disk().size());
    for (unsigned r = 0; r < primaries; r++)
        total += static_cast<double>(u.primaryStorage(r).disk().size());
    return total;
}

} // namespace

void
runArchiveIngest(const Args &args, double t0, Report &rep)
{
    std::size_t writes = args.scaled(150);
    SpanLog &log = rep.newLog();
    LayerInputs in;

    UniverseConfig cfg;
    cfg.numServers = kServers;
    cfg.archiveOnCommit = true;
    cfg.archiveDataFragments = kDataFragments;
    cfg.archiveTotalFragments = kTotalFragments;
    cfg.storage.kind = StorageKind::Log;
    cfg.network.seed = mixSeed64(args.seed, 0x6e6574);
    const unsigned primaries = 3 * cfg.pbftFaults + 1;

    double t = wallNow();
    auto universe = std::make_unique<Universe>(cfg);
    Universe &u = *universe;
    in.bootWall = wallNow() - t;

    t = wallNow();
    Rand r(args.seed);
    KeyPair owner = u.makeUser();
    std::vector<ObjectHandle> handles;
    std::vector<ObjectModel> models(kObjects);
    for (std::size_t o = 0; o < kObjects; o++) {
        handles.push_back(
            u.createObject(owner, "perfbench/archive-" + std::to_string(o)));
        models[o].blockSize = kBlockSize;
        std::vector<std::uint64_t> ids;
        for (std::size_t b = 0; b < kBlocks; b++)
            ids.push_back(r.next());
        models[o].versions.push_back(ids);
        rep.attempted++;
        WriteResult wr =
            u.writeSync(initialContent(handles[o], models[o], o));
        if (!wr.committed || wr.version != 1)
            rep.fail("initial content of " + handles[o].name() +
                     " did not commit");
    }
    // Let the initial content reach every replica before measuring.
    u.advance(5.0);
    in.populateWall = wallNow() - t;
    double setup = wallNow() - t0;

    in.counters.begin();
    std::uint64_t msgs0 = u.rt().totalMessages();
    std::uint64_t bytes0 = u.rt().totalBytes();
    double done = 0;

    // Phase 1: ingest.
    std::vector<double> writeLat, readLat;
    std::vector<std::uint64_t> committed(kObjects, 0);
    double ingestStart = wallNow();
    for (std::size_t i = 0; i < writes; i++) {
        std::size_t o = r.below(kObjects);
        std::size_t pos = r.below(kBlocks);
        std::uint64_t content = r.next();
        ObjectModel &model = models[o];
        std::uint32_t root = log.begin("round", i);
        Bytes plain = blockContent(content, kBlockSize);
        std::uint32_t s = log.begin("makeReplaceUpdate", i, root);
        Update up = handles[o].makeReplaceUpdate(pos, plain,
                                                 model.current(),
                                                 Timestamp{i + 2, o});
        log.end(s, kBlockSize);
        s = log.begin("writeSync", i, root);
        WriteResult wr = u.writeSync(up);
        log.end(s, kBlockSize);
        log.end(root);
        rep.attempted++;
        if (!wr.completed || !wr.committed) {
            rep.failed++;
            continue;
        }
        if (wr.version != model.current() + 1) {
            rep.fail("write acknowledged version " +
                     std::to_string(wr.version) + ", expected " +
                     std::to_string(model.current() + 1));
            continue;
        }
        model.replace(pos, content);
        committed[o]++;
        writeLat.push_back(wr.latency);
        done++;
    }
    double ingestWall = wallNow() - ingestStart;
    in.wireMessages = static_cast<double>(u.rt().totalMessages() - msgs0);
    in.wireBytes = static_cast<double>(u.rt().totalBytes() - bytes0);
    in.storedBytes = storedBytes(u, primaries);

    // Phase 2: restore every archived version.  A seeded sample is
    // compared with readVersion(obj, v)->serializeState() (erasure
    // decode against log replay) and decrypted against the model.
    struct Sampled
    {
        std::size_t obj;
        std::uint64_t version;
        Guid archive;
        Bytes state;
    };
    std::vector<Sampled> sample;
    std::vector<Bytes> states;
    double archived = 0;
    auto restore = [&](const Guid &ag, std::uint64_t trace) {
        std::uint32_t s = log.begin("restoreSync", trace);
        double t1 = wallNow();
        ReconstructResult rr = u.restoreSync(ag);
        in.restoreWall += wallNow() - t1;
        log.end(s, static_cast<double>(rr.data.size()));
        rep.attempted++;
        in.restores++;
        if (!rr.success) {
            rep.failed++;
            return rr;
        }
        in.restoredBytes += static_cast<double>(rr.data.size());
        readLat.push_back(rr.latency);
        done++;
        return rr;
    };
    bool perturbed = false;
    for (std::size_t o = 0; o < kObjects; o++) {
        auto versions = u.archivedVersions(handles[o].guid());
        if (versions.size() != models[o].current()) {
            rep.fail(handles[o].name() + " has " +
                     std::to_string(versions.size()) +
                     " archived versions, expected " +
                     std::to_string(models[o].current()));
        }
        for (const auto &[v, ag] : versions) {
            ReconstructResult rr = restore(ag, (o << 32) | v);
            if (!rr.success)
                continue;
            archived += static_cast<double>(rr.data.size());
            if (v > 1) // produced by a measured commit, not by populate
                in.archivedBytes += static_cast<double>(rr.data.size());
            if (r.below(8) != 0)
                continue;
            auto state = u.readVersion(handles[o].guid(), v);
            Bytes want = state ? state->serializeState() : Bytes{};
            if (args.perturb == Perturb::Restore && !perturbed &&
                !want.empty()) {
                want[want.size() / 2] ^= 0x01;
                perturbed = true;
            }
            if (!state || rr.data != want) {
                rep.fail("restore of " + handles[o].name() + " v" +
                         std::to_string(v) +
                         " differs from the replayed state");
                continue;
            }
            bool perturb = args.perturb == Perturb::Content &&
                           !perturbed;
            perturbed = perturbed || perturb;
            checkContent(handles[o], models[o], v, state->logicalContent(),
                         perturb, log, rep);
            if (sample.size() < 64)
                sample.push_back({o, v, ag, want});
            states.push_back(std::move(want));
        }
    }
    double ratio = static_cast<double>(kTotalFragments) / kDataFragments;
    if (in.storedBytes < ratio * archived)
        rep.fail("disk images hold " + std::to_string(in.storedBytes) +
                 " B, less than n/k times the " +
                 std::to_string(archived) + " archived bytes");

    // Phase 3: crash and restart every server (log replay).
    t = wallNow();
    std::uint32_t s = log.begin("recovery", 0);
    for (std::size_t i = 0; i < kServers; i++)
        u.crashServer(i);
    for (std::size_t i = 0; i < kServers; i++)
        u.restartServer(i);
    log.end(s);
    in.recoveryWall = wallNow() - t;
    for (std::size_t i = 0; i < kServers; i++) {
        const RecoveryReport &rr = u.storageOf(i).lastRecovery();
        in.replayedBytes += static_cast<double>(rr.bytesReplayed);
        in.recoveryRecords += static_cast<double>(rr.recordsReplayed);
    }
    in.restarts = kServers;
    rep.attempted += kServers;
    done += kServers;

    // Phase 4: the sample again, served from replayed logs.
    for (const Sampled &sm : sample) {
        ReconstructResult rr =
            restore(sm.archive, (sm.obj << 32) | sm.version);
        if (rr.success && rr.data != sm.state)
            rep.fail("restore of " + handles[sm.obj].name() + " v" +
                     std::to_string(sm.version) +
                     " changed across the crash/restart");
    }
    if (storedBytes(u, primaries) < ratio * archived)
        rep.fail("disk images shrank below n/k times the archived bytes "
                 "across the crash/restart");
    in.counters.end();
    double measured = ingestWall + in.restoreWall + in.recoveryWall;
    in.measuredWall = measured;

    checkFinal(u, handles, models, committed, args, log, rep);
    universe.reset();

    double commits = 0;
    for (std::uint64_t c : committed)
        commits += static_cast<double>(c);
    auto &e = rep.endToEnd;
    e["setup_s"] = {setup, "s"};
    e["ops_per_s"] = {per(done, measured), "1/s"};
    e["write_p50_ms"] = {percentile(writeLat, 50) * 1e3, "ms"};
    e["write_p99_ms"] = {percentile(writeLat, 99) * 1e3, "ms"};
    e["read_p50_ms"] = {percentile(readLat, 50) * 1e3, "ms"};
    e["read_p99_ms"] = {percentile(readLat, 99) * 1e3, "ms"};
    e["ingest_MBps"] = {per(commits * kBlockSize / 1e6, ingestWall),
                        "MB/s"};

    if (args.trace) {
        in.ops = done;
        in.commits = commits;
        in.userBytes = commits * kBlockSize;
        layerMetrics(rep, in);
        dataPlaneMetrics(rep, states, kDataFragments, kTotalFragments,
                         args.seed);
    }
}

} // namespace perfbench

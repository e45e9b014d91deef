/**
 * @file
 * zipf_mix: the location path on the SimRuntime.  128 servers, no
 * archive, 256 one-block (1 KB) objects picked by a Zipf(0.9) draw.
 * Open loop: Poisson arrivals at 200 operations per simulated second,
 * 90% asynchronous reads from a random home server and 10% writes,
 * serialised per object.  Every latency is modelled WAN time counted
 * from the moment the operation was due.
 *
 * A run is kEpochs independent epochs, each on a freshly booted
 * universe: every replica keeps every committed update, so memory
 * grows with writes x servers, and fresh epochs keep it bounded while
 * the run still measures enough work.  Latencies pool over epochs;
 * throughputs are the median over every epoch but the first, which
 * warms the allocator and caches.
 */

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>

#include "bench.h"

namespace perfbench {

using namespace oceanstore;

namespace {

constexpr std::size_t kObjects = 256;
constexpr std::size_t kBlockSize = 1024;
constexpr std::size_t kServers = 128;
constexpr std::size_t kUsers = 8;
constexpr double kZipfS = 0.9;
constexpr double kRate = 200.0;     //!< arrivals per simulated second
constexpr double kReadShare = 0.9;
constexpr std::size_t kBatch = 4096; //!< arrivals between check passes
constexpr double kSettle = 5.0;      //!< simulated seconds after populate
constexpr std::size_t kEpochs = 10;

/** Rank -> object by inverse CDF of Zipf(s) over n ranks. */
class Zipf
{
  public:
    Zipf(std::size_t n, double s)
    {
        double sum = 0;
        for (std::size_t k = 1; k <= n; k++) {
            sum += 1.0 / std::pow(static_cast<double>(k), s);
            cdf_.push_back(sum);
        }
        for (double &c : cdf_)
            c /= sum;
    }

    std::size_t
    draw(Rand &r) const
    {
        double u = r.unit();
        auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
        return it == cdf_.end() ? cdf_.size() - 1 : it - cdf_.begin();
    }

  private:
    std::vector<double> cdf_;
};

struct ReadRec
{
    std::size_t obj;
    std::size_t home;
    std::uint64_t newest; //!< newest committed version when due
    ReadResult res;
};

struct PendingWrite
{
    double due;
    std::uint64_t content;
};

/** What every epoch adds to the run's result. */
struct Totals
{
    std::vector<double> readLat, writeLat;
    std::vector<double> opsPerS, ingestMBps; //!< one per epoch
    double done = 0, commits = 0;
    std::vector<Bytes> states; //!< final states of the last epoch
};

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50);
}

/** One epoch: boot, populate, open loop, drain, check. */
void
runEpoch(const Args &args, std::size_t epoch, std::size_t ops, Rand &r,
         double t0, SpanLog &log, LayerInputs &in, Report &rep,
         Totals &tot)
{
    UniverseConfig cfg;
    cfg.numServers = kServers;
    cfg.archiveOnCommit = false;
    cfg.network.seed = mixSeed64(args.seed, 0x6e6574);

    double t = wallNow();
    auto universe = std::make_unique<Universe>(cfg);
    Universe &u = *universe;
    double boot = wallNow() - t;

    t = wallNow();
    std::vector<KeyPair> users;
    for (std::size_t i = 0; i < kUsers; i++)
        users.push_back(u.makeUser());
    std::vector<ObjectHandle> handles;
    std::vector<ObjectModel> models(kObjects);
    for (std::size_t o = 0; o < kObjects; o++) {
        handles.push_back(u.createObject(
            users[o % kUsers], "perfbench/zipf-" + std::to_string(o)));
        models[o].blockSize = kBlockSize;
        models[o].versions.push_back({r.next()});
        rep.attempted++;
        WriteResult wr = u.writeSync(initialContent(handles[o], models[o], o));
        if (!wr.committed || wr.version != 1)
            rep.fail("initial content of " + handles[o].name() +
                     " did not commit");
    }
    // Let the initial content reach every replica before measuring.
    u.advance(kSettle);
    Zipf zipf(kObjects, kZipfS);
    if (epoch == 0) {
        // The cold set-up; later epochs boot warm and are not timed.
        in.bootWall = boot;
        in.populateWall = wallNow() - t;
        rep.endToEnd["setup_s"] = {wallNow() - t0, "s"};
    }

    // Open-loop state.  Completions run inside the simulator's event
    // loop; a completed write issues the next one queued behind it.
    std::vector<ReadRec> reads;
    std::vector<double> &readLat = tot.readLat, &writeLat = tot.writeLat;
    std::vector<std::deque<PendingWrite>> queued(kObjects);
    std::vector<bool> inFlight(kObjects, false);
    std::vector<std::uint64_t> committed(kObjects, 0);
    std::size_t outstanding = 0;
    double done = 0;
    std::uint64_t seq = epoch << 32;

    std::function<void(std::size_t)> issueWrite = [&](std::size_t o) {
        PendingWrite pw = queued[o].front();
        queued[o].pop_front();
        inFlight[o] = true;
        std::uint64_t expect = models[o].current();
        Bytes plain = blockContent(pw.content, kBlockSize);
        std::uint32_t s = log.begin("makeReplaceUpdate", seq);
        Update up = handles[o].makeReplaceUpdate(0, plain, expect,
                                                 Timestamp{++seq, o});
        log.end(s, kBlockSize);
        u.write(up, [&, o, pw, expect](WriteResult wr) {
            outstanding--;
            inFlight[o] = false;
            if (!wr.completed || !wr.committed) {
                rep.failed++;
            } else if (wr.version != expect + 1) {
                rep.fail("write acknowledged version " +
                         std::to_string(wr.version) + ", expected " +
                         std::to_string(expect + 1));
            } else {
                models[o].replace(0, pw.content);
                committed[o]++;
                writeLat.push_back(u.rt().now() - pw.due);
                done++;
            }
            if (!queued[o].empty())
                issueWrite(o);
        });
    };

    bool perturbed = false;
    auto check = [&]() {
        for (ReadRec &rd : reads) {
            if (!rd.res.found) {
                rep.failed++;
                continue;
            }
            bool perturb = args.perturb == Perturb::Content && !perturbed;
            bool late = args.perturb == Perturb::Latency && !perturbed;
            perturbed = perturbed || perturb || late;
            if (!checkContent(handles[rd.obj], models[rd.obj],
                              rd.res.version, rd.res.blocks, perturb, log,
                              rep))
                continue;
            double floor = u.rt().latency(
                u.secondaryTier().replica(rd.res.servedBy).nodeId(),
                u.secondaryTier().replica(rd.home).nodeId());
            if (late)
                floor += 1.0;
            if (rd.res.latency + 1e-12 < floor) {
                rep.fail("read of " + handles[rd.obj].name() + " took " +
                         std::to_string(rd.res.latency) +
                         " s, below the link latency " +
                         std::to_string(floor) + " s");
                continue;
            }
            if (rd.res.version < rd.newest)
                in.staleReads++;
            readLat.push_back(rd.res.latency);
            done++;
        }
        reads.clear();
    };

    in.counters.begin();
    std::uint64_t msgs0 = u.rt().totalMessages();
    std::uint64_t bytes0 = u.rt().totalBytes();
    double measured = 0;
    double due = u.rt().now();
    double seg = wallNow();
    for (std::size_t i = 0; i < ops; i++) {
        due += -std::log(1.0 - r.unit()) / kRate;
        std::uint64_t trace = (epoch << 32) | i;
        std::uint32_t s = log.begin("advance", trace);
        u.advance(due - u.rt().now());
        log.end(s);

        // Popularity rank r is object r, so which servers host the
        // popular objects is part of the workload, not of the seed.
        std::size_t o = zipf.draw(r);
        rep.attempted++;
        outstanding++;
        if (r.unit() < kReadShare) {
            std::size_t home = r.below(kServers);
            std::uint64_t newest = models[o].current();
            s = log.begin("read", trace);
            u.read(home, handles[o].guid(), [&, o, home, newest](
                                                 ReadResult rr) {
                outstanding--;
                reads.push_back({o, home, newest, std::move(rr)});
            });
            log.end(s);
        } else {
            queued[o].push_back({due, r.next()});
            if (!inFlight[o])
                issueWrite(o);
        }

        if ((i + 1) % kBatch == 0) {
            measured += wallNow() - seg;
            check();
            seg = wallNow();
        }
    }
    // Drain: everything issued must complete.
    for (int step = 0; outstanding > 0 && step < 600; step++) {
        std::uint32_t s = log.begin("advance", (epoch << 32) | ops);
        u.advance(1.0);
        log.end(s);
    }
    measured += wallNow() - seg;
    in.wireMessages += static_cast<double>(u.rt().totalMessages() - msgs0);
    in.wireBytes += static_cast<double>(u.rt().totalBytes() - bytes0);
    in.counters.end();
    check();
    rep.failed += outstanding; // never completed

    tot.states = checkFinal(u, handles, models, committed, args, log, rep);
    universe.reset();

    double commits = 0;
    for (std::uint64_t c : committed)
        commits += static_cast<double>(c);
    tot.done += done;
    tot.commits += commits;
    if (epoch > 0) { // epoch 0 warms the allocator and caches
        tot.opsPerS.push_back(per(done, measured));
        tot.ingestMBps.push_back(per(commits * kBlockSize / 1e6, measured));
    }
    in.measuredWall += measured;
}

} // namespace

void
runZipfMix(const Args &args, double t0, Report &rep)
{
    std::size_t perEpoch = args.scaled(12000) / kEpochs;
    SpanLog &log = rep.newLog();
    LayerInputs in;
    Totals tot;
    Rand r(args.seed);
    for (std::size_t e = 0; e < kEpochs; e++)
        runEpoch(args, e, perEpoch, r, t0, log, in, rep, tot);

    auto &m = rep.endToEnd;
    m["ops_per_s"] = {median(tot.opsPerS), "1/s"};
    m["write_p50_ms"] = {percentile(tot.writeLat, 50) * 1e3, "ms"};
    m["write_p99_ms"] = {percentile(tot.writeLat, 99) * 1e3, "ms"};
    m["read_p50_ms"] = {percentile(tot.readLat, 50) * 1e3, "ms"};
    m["read_p99_ms"] = {percentile(tot.readLat, 99) * 1e3, "ms"};
    m["ingest_MBps"] = {median(tot.ingestMBps), "MB/s"};

    if (args.trace) {
        in.ops = tot.done;
        in.commits = tot.commits;
        in.userBytes = tot.commits * kBlockSize;
        layerMetrics(rep, in);
        UniverseConfig cfg;
        dataPlaneMetrics(rep, tot.states, cfg.archiveDataFragments,
                         cfg.archiveTotalFragments, args.seed);
    }
}

} // namespace perfbench

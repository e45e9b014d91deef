/** @file Full-system fault tests: partitions and churn end to end. */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>

#include "core/universe.h"
#include "runtime/churn.h"

namespace oceanstore {
namespace {

UniverseConfig
faultConfig()
{
    UniverseConfig cfg;
    cfg.numServers = 24;
    cfg.archiveOnCommit = false;
    cfg.archiveDataFragments = 4;
    cfg.archiveTotalFragments = 8;
    return cfg;
}

struct FaultTest : public ::testing::Test
{
    FaultTest() : uni(faultConfig()), owner(uni.makeUser()) {}

    Update
    appendText(const ObjectHandle &h, const std::string &text,
               VersionNum expected)
    {
        return h.makeAppendUpdate(toBytes(text), expected, {++tsc, 1});
    }

    Universe uni;
    KeyPair owner;
    std::uint64_t tsc = 0;
};

TEST_F(FaultTest, ReadsSurviveWhilePrimaryTierIsPartitioned)
{
    // "If application semantics allow it, this availability is
    // provided at the expense of consistency" (Section 2 fn. 1):
    // with the primary tier unreachable, new commits stall but reads
    // of previously committed data keep working from the floating
    // replicas.
    ObjectHandle doc = uni.createObject(owner, "doc");
    ASSERT_TRUE(uni.writeSync(appendText(doc, "v1", 0)).committed);
    uni.advance(10.0);

    // Partition every primary replica away.
    for (unsigned r = 0; r < uni.primaryTier().size(); r++)
        uni.rt().setPartition(uni.primaryTier().replica(r).nodeId(), 1);

    // A new write cannot complete...
    bool completed = false;
    uni.write(appendText(doc, "v2", 1),
              [&](WriteResult wr) { completed = wr.completed; });
    uni.advance(30.0);
    EXPECT_FALSE(completed);

    // ...but reads are still served everywhere.
    for (std::size_t s = 0; s < uni.numServers(); s += 5) {
        ReadResult rr = uni.readSync(s, doc.guid());
        EXPECT_TRUE(rr.found) << "server " << s;
        EXPECT_EQ(rr.version, 1u);
    }

    // Healing lets the stalled update commit (client retry path).
    uni.rt().healPartitions();
    bool landed = uni.runUntil([&]() { return completed; },
                               uni.rt().now() + 120.0);
    EXPECT_TRUE(landed);
}

/**
 * The same universe on either Runtime backend.  On the threaded
 * backend time is wall seconds, so that instance scales PBFT's
 * timers and the test's waits down by kWallScale to stay within a
 * ~10 s budget.
 */
class FaultOnBackend : public ::testing::TestWithParam<const char *>
{
  protected:
    static constexpr double kWallScale = 0.05;

    void
    SetUp() override
    {
        UniverseConfig cfg = faultConfig();
        if (std::string(GetParam()) == "threaded") {
            if (!ThreadedRuntime::available())
                GTEST_SKIP()
                    << "threaded backend needs OCEANSTORE_THREADED";
            cfg.runtime = RuntimeKind::Threaded;
            cfg.pbft.viewChangeTimeout *= kWallScale;
            cfg.pbft.clientRetry.firstDelay *= kWallScale;
            cfg.pbft.clientRetry.maxDelay *= kWallScale;
            scale_ = kWallScale;
        }
        uni_ = std::make_unique<Universe>(cfg);
        owner_ = uni_->makeUser();
    }

    /** A wait of @p simSeconds, in this backend's seconds. */
    double wait(double simSeconds) const { return simSeconds * scale_; }

    std::unique_ptr<Universe> uni_;
    KeyPair owner_;
    double scale_ = 1.0;
};

TEST_P(FaultOnBackend, MinorityPrimaryPartitionCannotCommit)
{
    // Byzantine safety: a minority of the tier split away from the
    // quorum must not serialize updates.
    Universe &uni = *uni_;
    ObjectHandle doc = uni.createObject(owner_, "doc");
    ASSERT_TRUE(uni.writeSync(doc.makeAppendUpdate(toBytes("v1"), 0,
                                                   {1, 1}))
                    .committed);

    // Split three replicas (of n=4, quorum needs 3) into partition 1.
    // The leader (rank 0) is alone in partition 0 with the client:
    // it can pre-prepare but can never reach the 2m+1 quorum.
    for (unsigned r = 1; r < 4; r++)
        uni.rt().setPartition(uni.primaryTier().replica(r).nodeId(), 1);
    std::atomic<bool> completed{false};
    uni.write(doc.makeAppendUpdate(toBytes("v2"), 1, {2, 1}),
              [&](WriteResult wr) { completed = wr.completed; });
    uni.advance(wait(30.0));
    EXPECT_FALSE(completed);

    // Safety: no replica executed the update while split.
    uni.rt().execute([&]() {
        for (unsigned r = 0; r < uni.primaryTier().size(); r++)
            EXPECT_EQ(uni.primaryTier().replica(r).executedCount(), 1u)
                << "replica " << r;
    });

    // Liveness: once healed, the client's retries commit the write.
    uni.rt().healPartitions();
    EXPECT_TRUE(uni.runUntil([&]() { return completed.load(); },
                             uni.rt().now() + wait(120.0)));
}

INSTANTIATE_TEST_SUITE_P(Backends, FaultOnBackend,
                         ::testing::Values("sim", "threaded"),
                         [](const auto &info) {
                             return std::string(info.param);
                         });

TEST_F(FaultTest, SecondaryChurnDoesNotLoseCommittedData)
{
    ObjectHandle doc = uni.createObject(owner, "doc");
    ASSERT_TRUE(uni.writeSync(appendText(doc, "v1", 0)).committed);
    uni.advance(10.0);

    // Churn the secondary servers while more commits land.
    std::vector<NodeId> servers;
    for (std::size_t i = 0; i < uni.numServers(); i++)
        servers.push_back(uni.secondaryTier().replica(i).nodeId());
    ChurnConfig ccfg;
    ccfg.meanUptime = 20.0;
    ccfg.meanDowntime = 5.0;
    ChurnInjector churn(uni.rt(), ccfg);
    churn.start(servers);
    uni.secondaryTier().startAntiEntropy();

    for (VersionNum v = 1; v < 6; v++) {
        WriteResult wr =
            uni.writeSync(appendText(doc, "v" + std::to_string(v + 1),
                                     v));
        ASSERT_TRUE(wr.completed);
        ASSERT_TRUE(wr.committed) << "version " << v + 1;
        uni.advance(5.0);
    }
    churn.stop();

    // Bring everyone up; anti-entropy converges the stragglers.
    for (NodeId n : servers)
        uni.rt().setUp(n);
    bool converged = uni.runUntil(
        [&]() {
            return uni.secondaryTier().allCommitted(doc.guid(), 6);
        },
        uni.rt().now() + 300.0);
    uni.secondaryTier().stopAntiEntropy();
    EXPECT_TRUE(converged);

    ReadResult rr = uni.readSync(3, doc.guid());
    ASSERT_TRUE(rr.found);
    EXPECT_EQ(rr.version, 6u);
    EXPECT_EQ(rr.blocks.size(), 6u);
}

TEST_F(FaultTest, ArchivedDataOutlivesEveryFloatingReplica)
{
    // The deep-archival promise: destroy every floating replica host;
    // the archival form still reconstructs the data.
    ObjectHandle doc = uni.createObject(owner, "doc");
    std::string text = "only the archive remembers";
    ASSERT_TRUE(uni.writeSync(appendText(doc, text, 0)).committed);
    Guid archive = uni.archiveObject(doc.guid());
    uni.advance(10.0);

    for (std::size_t idx : uni.hosts(doc.guid()))
        uni.rt().setDown(uni.secondaryTier().replica(idx).nodeId());

    auto res = uni.restoreSync(archive);
    ASSERT_TRUE(res.success);
    EXPECT_FALSE(res.data.empty());
}

} // namespace
} // namespace oceanstore

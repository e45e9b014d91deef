/** @file API-layer tests: sessions, transactions, FS facade. */

#include <algorithm>
#include <chrono>

#include <gtest/gtest.h>

#include "api/fs_facade.h"
#include "api/transaction.h"

namespace oceanstore {
namespace {

UniverseConfig
smallConfig()
{
    UniverseConfig cfg;
    cfg.numServers = 20;
    cfg.archiveOnCommit = false;
    cfg.archiveDataFragments = 4;
    cfg.archiveTotalFragments = 8;
    return cfg;
}

struct ApiTest : public ::testing::Test
{
    ApiTest() : uni(smallConfig()), owner(uni.makeUser()) {}

    Universe uni;
    KeyPair owner;
};

TEST_F(ApiTest, SessionWriteAndRead)
{
    Session session(uni, 0, static_cast<std::uint8_t>(
                                SessionGuarantee::All));
    ObjectHandle h = uni.createObject(owner, "doc");
    WriteResult wr = session.write(
        h.makeAppendUpdate(toBytes("hello"), 0, session.makeTimestamp()));
    ASSERT_TRUE(wr.committed);
    EXPECT_EQ(session.lastWritten(h.guid()), 1u);

    ReadResult rr = session.read(h.guid());
    ASSERT_TRUE(rr.found);
    EXPECT_GE(rr.version, 1u); // read-your-writes enforced
    EXPECT_EQ(session.lastRead(h.guid()), rr.version);
}

TEST_F(ApiTest, ReadYourWritesWaitsForPropagation)
{
    Session session(uni, 3, static_cast<std::uint8_t>(
                                SessionGuarantee::ReadYourWrites));
    ObjectHandle h = uni.createObject(owner, "doc");
    session.write(
        h.makeAppendUpdate(toBytes("v1"), 0, session.makeTimestamp()));
    // Immediately read: the located replica may be behind, but the
    // session must not return a pre-write version.
    ReadResult rr = session.read(h.guid());
    ASSERT_TRUE(rr.found);
    EXPECT_GE(rr.version, 1u);
}

#ifdef OCEANSTORE_THREADED

TEST(ThreadedSession, ReadYourWritesReadReturnsAsSoonAsTheReplicaCatchesUp)
{
    // On wall-clock time a stale first read waits for the serving
    // replica to apply the write, not for a fixed sleep, so each
    // read returns well inside 250 ms.
    UniverseConfig cfg = smallConfig();
    cfg.runtime = RuntimeKind::Threaded;
    Universe uni(cfg);
    KeyPair owner = uni.makeUser();
    Session session(uni, 3, static_cast<std::uint8_t>(
                                SessionGuarantee::ReadYourWrites));
    ObjectHandle h = uni.createObject(owner, "doc");
    for (VersionNum v = 0; v < 5; v++) {
        ASSERT_TRUE(session
                        .write(h.makeAppendUpdate(
                            toBytes("v" + std::to_string(v)), v,
                            session.makeTimestamp()))
                        .committed);
        auto t0 = std::chrono::steady_clock::now();
        ReadResult rr = session.read(h.guid());
        double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
        ASSERT_TRUE(rr.found);
        EXPECT_GE(rr.version, v + 1);
        EXPECT_LT(wall, 0.1) << "version " << v + 1;
    }
}

#endif // OCEANSTORE_THREADED

TEST_F(ApiTest, MonotonicReadsNeverRegress)
{
    Session session(uni, 2, static_cast<std::uint8_t>(
                                SessionGuarantee::MonotonicReads));
    ObjectHandle h = uni.createObject(owner, "doc");
    uni.writeSync(
        h.makeAppendUpdate(toBytes("v1"), 0, session.makeTimestamp()));
    uni.advance(10.0);
    VersionNum first = session.read(h.guid()).version;
    uni.writeSync(
        h.makeAppendUpdate(toBytes("v2"), 1, session.makeTimestamp()));
    uni.advance(10.0);
    VersionNum second = session.read(h.guid()).version;
    EXPECT_GE(second, first);
}

TEST_F(ApiTest, UpdateEventCallbacksFire)
{
    Session session(uni, 0, 0);
    ObjectHandle h = uni.createObject(owner, "doc");
    std::vector<UpdateEvent> events;
    session.onUpdateEvent(
        [&](const UpdateEvent &e) { events.push_back(e); });

    session.write(
        h.makeAppendUpdate(toBytes("ok"), 0, session.makeTimestamp()));
    session.write(h.makeAppendUpdate(toBytes("stale"), 0,
                                     session.makeTimestamp()));
    ASSERT_EQ(events.size(), 2u);
    EXPECT_TRUE(events[0].committed);
    EXPECT_FALSE(events[1].committed); // abort notification
}

TEST_F(ApiTest, TransactionCommit)
{
    Session session(uni, 0, static_cast<std::uint8_t>(
                                SessionGuarantee::All));
    ObjectHandle h = uni.createObject(owner, "account");
    session.write(h.makeAppendUpdate(toBytes("100"), 0,
                                     session.makeTimestamp()));

    Transaction tx(session, h);
    auto balance = tx.read();
    ASSERT_TRUE(balance.has_value());
    EXPECT_EQ(toString(*balance), "100");
    tx.write(toBytes("150"));
    TxResult res = tx.commit();
    EXPECT_TRUE(res.committed);

    Transaction check(session, h);
    EXPECT_EQ(toString(*check.read()), "150");
}

TEST_F(ApiTest, ConflictingTransactionAborts)
{
    Session s1(uni, 0, static_cast<std::uint8_t>(SessionGuarantee::All));
    Session s2(uni, 1, static_cast<std::uint8_t>(SessionGuarantee::All));
    ObjectHandle h = uni.createObject(owner, "account");
    s1.write(h.makeAppendUpdate(toBytes("100"), 0, s1.makeTimestamp()));

    Transaction tx1(s1, h);
    Transaction tx2(s2, h);
    ASSERT_TRUE(tx1.read().has_value());
    ASSERT_TRUE(tx2.read().has_value());
    tx1.write(toBytes("150"));
    tx2.write(toBytes("90"));

    EXPECT_TRUE(tx1.commit().committed);
    // tx2's read set is now stale: optimistic concurrency aborts it.
    EXPECT_FALSE(tx2.commit().committed);

    Transaction check(s1, h);
    EXPECT_EQ(toString(*check.read()), "150");
}

TEST_F(ApiTest, TransactionGrowsAndShrinksContent)
{
    Session session(uni, 0, static_cast<std::uint8_t>(
                                SessionGuarantee::All));
    ObjectHandle h = uni.createObject(owner, "doc");
    session.write(h.makeAppendUpdate(Bytes(10000, 'a'), 0,
                                     session.makeTimestamp()));

    Transaction grow(session, h);
    grow.read();
    grow.write(Bytes(20000, 'b'));
    ASSERT_TRUE(grow.commit().committed);

    Transaction shrink(session, h);
    auto content = shrink.read();
    ASSERT_TRUE(content.has_value());
    EXPECT_EQ(content->size(), 20000u);
    shrink.write(toBytes("tiny"));
    ASSERT_TRUE(shrink.commit().committed);

    Transaction check(session, h);
    EXPECT_EQ(toString(*check.read()), "tiny");
}

TEST_F(ApiTest, FsFacadeBasics)
{
    FileSystemFacade fs(uni, owner, "home");
    EXPECT_TRUE(fs.mkdir("docs"));
    EXPECT_TRUE(fs.writeFile("docs/paper.txt", toBytes("oceanstore")));

    auto content = fs.readFile("docs/paper.txt");
    ASSERT_TRUE(content.has_value());
    EXPECT_EQ(toString(*content), "oceanstore");

    auto names = fs.list("docs");
    ASSERT_TRUE(names.has_value());
    EXPECT_EQ(*names, std::vector<std::string>{"paper.txt"});
}

TEST_F(ApiTest, FsFacadeOverwriteAndNested)
{
    FileSystemFacade fs(uni, owner, "home");
    ASSERT_TRUE(fs.mkdir("a"));
    ASSERT_TRUE(fs.mkdir("a/b"));
    ASSERT_TRUE(fs.writeFile("a/b/f", toBytes("v1")));
    ASSERT_TRUE(fs.writeFile("a/b/f", toBytes("v2")));
    EXPECT_EQ(toString(*fs.readFile("a/b/f")), "v2");
    EXPECT_TRUE(fs.exists("a/b"));
    EXPECT_FALSE(fs.exists("a/c"));
}

TEST_F(ApiTest, FsFacadeErrors)
{
    FileSystemFacade fs(uni, owner, "home");
    EXPECT_FALSE(fs.mkdir("no/parent"));
    EXPECT_FALSE(fs.writeFile("missing-dir/file", toBytes("x")));
    EXPECT_FALSE(fs.readFile("nope").has_value());
    EXPECT_FALSE(fs.list("nope").has_value());
    ASSERT_TRUE(fs.mkdir("d"));
    EXPECT_FALSE(fs.mkdir("d")); // already exists
    ASSERT_TRUE(fs.writeFile("f", toBytes("x")));
    EXPECT_FALSE(fs.readFile("d").has_value()); // not a file
    EXPECT_FALSE(fs.mkdir("f/sub")); // cannot descend through a file
}

TEST_F(ApiTest, FsFacadeUnlink)
{
    FileSystemFacade fs(uni, owner, "home");
    ASSERT_TRUE(fs.writeFile("junk", toBytes("x")));
    EXPECT_TRUE(fs.unlink("junk"));
    EXPECT_FALSE(fs.exists("junk"));
    EXPECT_FALSE(fs.unlink("junk"));

    ASSERT_TRUE(fs.mkdir("dir"));
    ASSERT_TRUE(fs.writeFile("dir/f", toBytes("x")));
    EXPECT_FALSE(fs.unlink("dir")); // not empty
    ASSERT_TRUE(fs.unlink("dir/f"));
    EXPECT_TRUE(fs.unlink("dir")); // now empty
}

TEST_F(ApiTest, FsFacadeGuidAccess)
{
    FileSystemFacade fs(uni, owner, "home");
    ASSERT_TRUE(fs.writeFile("f", toBytes("data")));
    auto guid = fs.guidOf("f");
    ASSERT_TRUE(guid.has_value());
    // The GUID is directly readable through the raw API.
    ReadResult rr = uni.readSync(0, *guid);
    EXPECT_TRUE(rr.found);
}

TEST_F(ApiTest, WritesFollowReadsViolationCaught)
{
    Session session(uni, 0, static_cast<std::uint8_t>(
                                SessionGuarantee::WritesFollowReads));
    ObjectHandle h = uni.createObject(owner, "doc");
    uni.writeSync(
        h.makeAppendUpdate(toBytes("v1"), 0, session.makeTimestamp()));
    uni.writeSync(
        h.makeAppendUpdate(toBytes("v2"), 1, session.makeTimestamp()));
    uni.advance(10.0);
    ReadResult rr = session.read(h.guid());
    ASSERT_GE(rr.version, 2u);

    // An update conditioned on version 1 (< what the session read)
    // violates writes-follow-reads and is refused locally.
    EXPECT_THROW(session.write(h.makeAppendUpdate(
                     toBytes("stale"), 1, session.makeTimestamp())),
                 std::runtime_error);
}

} // namespace
} // namespace oceanstore

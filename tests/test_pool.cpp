/**
 * @file
 * Unit tests for the free-list object pools behind makePacket() /
 * makeMemRequest(), checked through the addresses they hand out:
 * a freed block comes straight back (LIFO), steady-state churn only
 * ever reuses warmed blocks, and a block released on another thread
 * is recycled by the thread that released it.
 */

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "mem/MemRequest.hh"
#include "net/Packet.hh"

using namespace netdimm;

TEST(ObjectPool, FreedBlockIsRecycledLifo)
{
    auto p1 = makePacket(64, 0, 1);
    const void *block = p1.get();
    p1.reset();
    // The LIFO free list hands the just-freed block straight back.
    auto p2 = makePacket(64, 0, 1);
    EXPECT_EQ(static_cast<const void *>(p2.get()), block);

    auto r1 = makeMemRequest(0, 64, false, MemSource::HostCpu, nullptr);
    const void *req = r1.get();
    r1.reset();
    auto r2 = makeMemRequest(64, 64, true, MemSource::HostDma, nullptr);
    EXPECT_EQ(static_cast<const void *>(r2.get()), req);
}

TEST(ObjectPool, SteadyStateChurnDoesNotGrowPools)
{
    // Warm both pools to a high-water mark of kLive blocks each and
    // remember every block's address.
    constexpr std::size_t kLive = 32;
    std::set<const void *> packets;
    std::set<const void *> requests;
    {
        std::vector<PacketPtr> ps;
        std::vector<MemRequestPtr> rs;
        for (std::size_t i = 0; i < kLive; ++i) {
            ps.push_back(makePacket(64, 0, 1));
            rs.push_back(makeMemRequest(Addr(i) * 64, 64, false,
                                        MemSource::HostCpu, nullptr));
            packets.insert(ps.back().get());
            requests.insert(rs.back().get());
        }
    }

    // Churn below the high-water mark: every object must land in a
    // warmed block, i.e. nothing came from the heap.
    std::vector<PacketPtr> ps;
    std::vector<MemRequestPtr> rs;
    for (std::uint64_t i = 0; i < 10000; ++i) {
        if (ps.size() == kLive / 2) {
            ps.clear();
            rs.clear();
        }
        ps.push_back(makePacket(1460, 0, 1));
        rs.push_back(makeMemRequest(Addr(i) * 64, 64, true,
                                    MemSource::HostDma, nullptr));
        ASSERT_EQ(packets.count(ps.back().get()), 1u) << "round " << i;
        ASSERT_EQ(requests.count(rs.back().get()), 1u) << "round " << i;
    }
}

TEST(ObjectPool, BlockFreedOnAnotherThreadJoinsThatThreadsPool)
{
    // Each worker releases a packet this thread allocated and must get
    // that very block back from its own pool, then churns concurrently
    // with the other workers (a TSan canary: the pools share nothing).
    // It also hands back a packet of its own for this thread to free.
    constexpr int kThreads = 4;
    std::vector<PacketPtr> toWorker;
    std::vector<const void *> given;
    for (int t = 0; t < kThreads; ++t) {
        toWorker.push_back(makePacket(64, 0, 1));
        given.push_back(toWorker.back().get());
    }

    std::atomic<int> failures{0};
    std::vector<PacketPtr> fromWorker(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t, p = std::move(toWorker[t])]() mutable {
            p.reset();
            PacketPtr q = makePacket(64, 0, 1);
            if (q.get() != given[t])
                ++failures;
            for (int i = 0; i < 2000; ++i) {
                PacketPtr r = makePacket(1460, 0, 1);
                if (r->bytes != 1460u)
                    ++failures;
            }
            fromWorker[t] = std::move(q);
        });
    }
    for (std::thread &th : threads)
        th.join();
    EXPECT_EQ(failures.load(), 0);

    // The workers have exited; the blocks they allocated now join
    // this thread's pool, last released first.
    const void *last = fromWorker.back().get();
    for (PacketPtr &p : fromWorker)
        p.reset();
    PacketPtr mine = makePacket(64, 0, 1);
    EXPECT_EQ(static_cast<const void *>(mine.get()), last);
}

// Integration tests for communicators: p2p matching, collectives,
// construction (dup/split/create), intercommunicators, and virtual time.

#include "src/mpisim/comm.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <numeric>
#include <vector>

#include "src/mpisim/runtime.hpp"

namespace mpisim {
namespace {

TEST(RuntimeTest, RanksSeeTheirIdentity) {
  std::atomic<int> sum{0};
  run(4, Platform::ideal, [&] {
    EXPECT_EQ(nranks(), 4);
    EXPECT_GE(rank(), 0);
    EXPECT_LT(rank(), 4);
    sum += rank();
  });
  EXPECT_EQ(sum.load(), 6);
}

TEST(RuntimeTest, CallOutsideRunThrows) {
  EXPECT_THROW(ctx(), MpiError);
  EXPECT_FALSE(in_simulation());
}

TEST(RuntimeTest, RankFailurePropagatesAndUnblocksPeers) {
  EXPECT_THROW(
      run(4, Platform::ideal,
          [] {
            if (rank() == 2) throw std::logic_error("injected failure");
            world().barrier();  // would hang without abort propagation
          }),
      std::logic_error);
}

TEST(RuntimeTest, AbortedCollectiveReportsAborted) {
  try {
    run(3, Platform::ideal, [] {
      if (rank() == 0) raise(Errc::invalid_argument, "boom");
      world().barrier();
    });
    FAIL() << "expected throw";
  } catch (const MpiError& e) {
    EXPECT_EQ(e.code(), Errc::invalid_argument);  // first error wins
  }
}

TEST(CommP2pTest, BasicSendRecv) {
  run(2, Platform::ideal, [] {
    Comm w = world();
    if (rank() == 0) {
      const int v = 42;
      w.send(&v, sizeof v, 1, 7);
    } else {
      int v = 0;
      Status st = w.recv(&v, sizeof v, 0, 7);
      EXPECT_EQ(v, 42);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 7);
      EXPECT_EQ(st.bytes, sizeof v);
    }
  });
}

TEST(CommP2pTest, TagMatchingIsSelective) {
  run(2, Platform::ideal, [] {
    Comm w = world();
    if (rank() == 0) {
      const int a = 1, b = 2;
      w.send(&a, sizeof a, 1, 10);
      w.send(&b, sizeof b, 1, 20);
    } else {
      int v = 0;
      w.recv(&v, sizeof v, 0, 20);  // out of order by tag
      EXPECT_EQ(v, 2);
      w.recv(&v, sizeof v, 0, 10);
      EXPECT_EQ(v, 1);
    }
  });
}

TEST(CommP2pTest, WildcardSourceAndTag) {
  run(4, Platform::ideal, [] {
    Comm w = world();
    if (rank() != 0) {
      const int v = rank() * 100;
      w.send(&v, sizeof v, 0, rank());
    } else {
      int seen = 0;
      for (int i = 0; i < 3; ++i) {
        int v = 0;
        Status st = w.recv(&v, sizeof v, kAnySource, kAnyTag);
        EXPECT_EQ(v, st.source * 100);
        EXPECT_EQ(st.tag, st.source);
        seen += st.source;
      }
      EXPECT_EQ(seen, 6);
    }
  });
}

TEST(CommP2pTest, FifoOrderPerSenderAndTag) {
  run(2, Platform::ideal, [] {
    Comm w = world();
    if (rank() == 0) {
      for (int i = 0; i < 10; ++i) w.send(&i, sizeof i, 1, 5);
    } else {
      for (int i = 0; i < 10; ++i) {
        int v = -1;
        w.recv(&v, sizeof v, 0, 5);
        EXPECT_EQ(v, i);
      }
    }
  });
}

TEST(CommP2pTest, TruncationThrows) {
  EXPECT_THROW(run(2, Platform::ideal,
                   [] {
                     Comm w = world();
                     if (rank() == 0) {
                       std::array<char, 16> big{};
                       w.send(big.data(), big.size(), 1, 0);
                     } else {
                       char small[4];
                       w.recv(small, sizeof small, 0, 0);
                     }
                   }),
               MpiError);
}

TEST(CommP2pTest, IprobeSeesPendingMessage) {
  run(2, Platform::ideal, [] {
    Comm w = world();
    if (rank() == 0) {
      const int v = 5;
      w.send(&v, sizeof v, 1, 3);
      w.barrier();
    } else {
      w.barrier();  // ensure the message arrived
      Status st;
      EXPECT_TRUE(w.iprobe(0, 3, &st));
      EXPECT_EQ(st.bytes, sizeof(int));
      EXPECT_FALSE(w.iprobe(0, 99));
      int v = 0;
      w.recv(&v, sizeof v, 0, 3);
    }
  });
}

TEST(CommP2pTest, ReceiveAdvancesVirtualClock) {
  run(2, Platform::infiniband, [] {
    Comm w = world();
    if (rank() == 0) {
      std::vector<char> buf(1 << 20);
      w.send(buf.data(), buf.size(), 1, 0);
    } else {
      std::vector<char> buf(1 << 20);
      const double before = clock().now_ns();
      w.recv(buf.data(), buf.size(), 0, 0);
      // 1 MiB at 3.2 GiB/s is ~305 us.
      EXPECT_GT(clock().now_ns() - before, 200000.0);
    }
  });
}

TEST(CommP2pTest, IsendIrecvRoundTrip) {
  run(2, Platform::ideal, [] {
    Comm w = world();
    if (rank() == 0) {
      const int v = 77;
      Comm::Request s = w.isend(&v, sizeof v, 1, 9);
      s.wait();
    } else {
      int v = 0;
      Comm::Request r = w.irecv(&v, sizeof v, 0, 9);
      Status st;
      r.wait(&st);
      EXPECT_EQ(v, 77);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 9);
    }
  });
}

TEST(CommP2pTest, IrecvTestPollsWithoutBlocking) {
  run(2, Platform::ideal, [] {
    Comm w = world();
    if (rank() == 1) {
      int v = 0;
      Comm::Request r = w.irecv(&v, sizeof v, 0, 4);
      // Nothing sent yet: test() must not block or complete.
      // (The sender is gated on our message below.)
      EXPECT_FALSE(r.test());
      const int go = 1;
      w.send(&go, sizeof go, 0, 5);
      r.wait();
      EXPECT_EQ(v, 13);
    } else {
      int go = 0;
      w.recv(&go, sizeof go, 1, 5);
      const int v = 13;
      w.send(&v, sizeof v, 1, 4);
    }
  });
}

TEST(CommP2pTest, WaitAllCompletesABatch) {
  run(4, Platform::ideal, [] {
    Comm w = world();
    if (rank() == 0) {
      std::vector<int> vals(3, 0);
      std::vector<Comm::Request> reqs;
      for (int src = 1; src < 4; ++src)
        reqs.push_back(w.irecv(&vals[static_cast<std::size_t>(src - 1)],
                               sizeof(int), src, 2));
      Comm::wait_all(reqs);
      EXPECT_EQ(vals[0] + vals[1] + vals[2], 10 + 20 + 30);
    } else {
      const int v = rank() * 10;
      w.send(&v, sizeof v, 0, 2);
    }
  });
}

TEST(CommCollTest, BarrierSynchronizesClocks) {
  run(4, Platform::infiniband, [] {
    // Rank 2 is "slow": give it extra virtual work before the barrier.
    if (rank() == 2) clock().advance(1e9);
    world().barrier();
    EXPECT_GE(clock().now_ns(), 1e9);
  });
}

TEST(CommCollTest, BcastFromEveryRoot) {
  run(4, Platform::ideal, [] {
    Comm w = world();
    for (int root = 0; root < 4; ++root) {
      std::array<double, 8> buf{};
      if (rank() == root)
        for (int i = 0; i < 8; ++i) buf[static_cast<std::size_t>(i)] = root * 10.0 + i;
      w.bcast(buf.data(), sizeof buf, root);
      for (int i = 0; i < 8; ++i)
        EXPECT_DOUBLE_EQ(buf[static_cast<std::size_t>(i)], root * 10.0 + i);
    }
  });
}

TEST(CommCollTest, AllreduceSumAndMax) {
  run(5, Platform::ideal, [] {
    Comm w = world();
    const std::int64_t mine = rank() + 1;
    std::int64_t sum = 0;
    w.allreduce(&mine, &sum, 1, BasicType::int64, Op::sum);
    EXPECT_EQ(sum, 15);
    std::int64_t mx = 0;
    w.allreduce(&mine, &mx, 1, BasicType::int64, Op::max);
    EXPECT_EQ(mx, 5);
  });
}

TEST(CommCollTest, ReduceToRootOnly) {
  run(4, Platform::ideal, [] {
    Comm w = world();
    const double mine = static_cast<double>(rank());
    double out = -1.0;
    w.reduce(&mine, &out, 1, BasicType::float64, Op::sum, 2);
    if (rank() == 2) {
      EXPECT_DOUBLE_EQ(out, 6.0);
    }
    else
      EXPECT_DOUBLE_EQ(out, -1.0);
  });
}

TEST(CommCollTest, AllgatherOrdersByRank) {
  run(4, Platform::ideal, [] {
    Comm w = world();
    const int mine = rank() * 3;
    std::array<int, 4> all{};
    w.allgather(&mine, all.data(), sizeof mine);
    for (int r = 0; r < 4; ++r) EXPECT_EQ(all[static_cast<std::size_t>(r)], r * 3);
  });
}

TEST(CommCollTest, AllgathervVariableSizes) {
  run(3, Platform::ideal, [] {
    Comm w = world();
    // Rank r contributes r+1 bytes of value 'A'+r.
    std::vector<char> mine(static_cast<std::size_t>(rank() + 1),
                           static_cast<char>('A' + rank()));
    const std::array<std::size_t, 3> counts{1, 2, 3};
    std::vector<char> out(6);
    w.allgatherv(mine.data(), mine.size(), out.data(), counts);
    EXPECT_EQ(std::string(out.begin(), out.end()), "ABBCCC");
  });
}

TEST(CommCollTest, AlltoallTransposes) {
  run(4, Platform::ideal, [] {
    Comm w = world();
    std::array<int, 4> in{}, out{};
    for (int j = 0; j < 4; ++j)
      in[static_cast<std::size_t>(j)] = rank() * 10 + j;
    w.alltoall(in.data(), out.data(), sizeof(int));
    for (int j = 0; j < 4; ++j)
      EXPECT_EQ(out[static_cast<std::size_t>(j)], j * 10 + rank());
  });
}

TEST(CommCollTest, InclusiveScan) {
  run(4, Platform::ideal, [] {
    Comm w = world();
    const std::int32_t mine = rank() + 1;
    std::int32_t pre = 0;
    w.scan(&mine, &pre, 1, BasicType::int32, Op::sum);
    EXPECT_EQ(pre, (rank() + 1) * (rank() + 2) / 2);
  });
}

TEST(CommCollTest, RepeatedCollectivesDoNotInterfere) {
  run(4, Platform::ideal, [] {
    Comm w = world();
    for (int iter = 0; iter < 50; ++iter) {
      std::int64_t mine = rank() + iter;
      std::int64_t sum = 0;
      w.allreduce(&mine, &sum, 1, BasicType::int64, Op::sum);
      EXPECT_EQ(sum, 6 + 4 * iter);
    }
  });
}

TEST(CommCtorTest, DupHasNewIdSameGroup) {
  run(3, Platform::ideal, [] {
    Comm w = world();
    Comm d = w.dup();
    EXPECT_NE(d.id(), w.id());
    EXPECT_EQ(d.size(), w.size());
    EXPECT_EQ(d.rank(), w.rank());
    // Messages on the dup do not match receives on world.
    if (rank() == 0) {
      const int v = 9;
      d.send(&v, sizeof v, 1, 0);
    } else if (rank() == 1) {
      EXPECT_FALSE(w.iprobe(0, 0));
      int v = 0;
      d.recv(&v, sizeof v, 0, 0);
      EXPECT_EQ(v, 9);
    }
    d.barrier();
  });
}

TEST(CommCtorTest, SplitEvenOdd) {
  run(6, Platform::ideal, [] {
    Comm sub = world().split(rank() % 2, rank());
    EXPECT_EQ(sub.size(), 3);
    EXPECT_EQ(sub.rank(), rank() / 2);
    EXPECT_EQ(sub.world_rank(sub.rank()), rank());
    std::int64_t mine = rank(), sum = 0;
    sub.allreduce(&mine, &sum, 1, BasicType::int64, Op::sum);
    EXPECT_EQ(sum, rank() % 2 == 0 ? 0 + 2 + 4 : 1 + 3 + 5);
  });
}

TEST(CommCtorTest, SplitKeyControlsOrdering) {
  run(4, Platform::ideal, [] {
    // Reverse order via descending keys.
    Comm sub = world().split(0, -rank());
    EXPECT_EQ(sub.rank(), 3 - rank());
  });
}

TEST(CommCtorTest, SplitNegativeColorGetsNothing) {
  run(4, Platform::ideal, [] {
    Comm sub = world().split(rank() == 0 ? -1 : 0, rank());
    if (rank() == 0) {
      EXPECT_FALSE(sub.valid());
    }
    else
      EXPECT_EQ(sub.size(), 3);
  });
}

TEST(CommCtorTest, CreateSubgroup) {
  run(5, Platform::ideal, [] {
    Group sub({1, 3, 4});
    Comm c = world().create(sub);
    if (sub.contains(rank())) {
      ASSERT_TRUE(c.valid());
      EXPECT_EQ(c.size(), 3);
      EXPECT_EQ(c.world_rank(c.rank()), rank());
    } else {
      EXPECT_FALSE(c.valid());
    }
  });
}

TEST(CommInterTest, CreateAndMerge) {
  run(6, Platform::ideal, [] {
    // Two halves: {0,1,2} and {3,4,5}; leaders 0 and 3.
    Comm local = world().split(rank() < 3 ? 0 : 1, rank());
    Comm inter = local.intercomm_create(0, rank() < 3 ? 3 : 0, 99);
    EXPECT_TRUE(inter.is_inter());
    EXPECT_EQ(inter.size(), 3);
    EXPECT_EQ(inter.remote_size(), 3);

    // P2p across the intercomm: rank i of one side pings rank i of the other.
    const int peer = inter.rank();
    const int v = rank();
    inter.send(&v, sizeof v, peer, 1);
    int got = -1;
    inter.recv(&got, sizeof got, peer, 1);
    EXPECT_EQ(got, rank() < 3 ? rank() + 3 : rank() - 3);

    // Merge: low side (containing world 0) first.
    Comm merged = inter.merge(/*high=*/rank() >= 3);
    EXPECT_FALSE(merged.is_inter());
    EXPECT_EQ(merged.size(), 6);
    EXPECT_EQ(merged.rank(), rank());  // ordering reproduces world order here
    std::int64_t mine = 1, total = 0;
    merged.allreduce(&mine, &total, 1, BasicType::int64, Op::sum);
    EXPECT_EQ(total, 6);
  });
}

TEST(CommInterTest, MergeHighFirstSideOrdering) {
  run(4, Platform::ideal, [] {
    Comm local = world().split(rank() < 2 ? 0 : 1, rank());
    Comm inter = local.intercomm_create(0, rank() < 2 ? 2 : 0, 42);
    // The low-world side asks to be high: ordering flips.
    Comm merged = inter.merge(/*high=*/rank() < 2);
    EXPECT_EQ(merged.size(), 4);
    const int expect = rank() < 2 ? rank() + 2 : rank() - 2;
    EXPECT_EQ(merged.rank(), expect);
  });
}

TEST(CommStressTest, ManyCommunicatorsAndMessages) {
  run(8, Platform::ideal, [] {
    Comm w = world();
    // Build a ring of subcommunicators and circulate a token in each.
    for (int round = 0; round < 5; ++round) {
      Comm sub = w.split(rank() % 2, rank());
      const int n = sub.size();
      const int next = (sub.rank() + 1) % n;
      const int prev = (sub.rank() - 1 + n) % n;
      int token = round;
      if (sub.rank() == 0) {
        sub.send(&token, sizeof token, next, round);
        sub.recv(&token, sizeof token, prev, round);
        EXPECT_EQ(token, round + n - 1);
      } else {
        sub.recv(&token, sizeof token, prev, round);
        ++token;
        sub.send(&token, sizeof token, next, round);
      }
    }
  });
}

TEST(RequestLifecycleTest, DoubleWaitRaisesInvalidArgument) {
  run(2, Platform::ideal, [] {
    Comm w = world();
    if (rank() == 0) {
      const std::int32_t v = 7;
      w.send(&v, sizeof v, 1, 3);
    } else {
      std::int32_t v = 0;
      Comm::Request req = w.irecv(&v, sizeof v, 0, 3);
      req.wait();
      EXPECT_EQ(v, 7);
      // A receive completes exactly once; a second wait is a program error
      // (the old behavior -- blocking for a message that will never come
      // again -- hid real bugs behind a hang).
      try {
        req.wait();
        ADD_FAILURE() << "second wait() on a completed receive returned";
      } catch (const MpiError& e) {
        EXPECT_EQ(e.code(), Errc::invalid_argument) << e.what();
      }
      // test() stays idempotent: complete, no re-raise, status refetch ok.
      Status st;
      EXPECT_TRUE(req.test(&st));
      EXPECT_EQ(st.source, 0);
    }
    w.barrier();
  });
}

TEST(RequestLifecycleTest, DestructorCancelsUnmatchedPosting) {
  run(2, Platform::ideal, [] {
    Comm w = world();
    if (rank() == 1) {
      {
        std::int32_t dropped = 0;
        Comm::Request req = w.irecv(&dropped, sizeof dropped, 0, 4);
        (void)req;  // never waited: destructor must cancel the posting
      }
      w.barrier();  // sender posts only after the cancel is done
      // The cancelled posting must not capture (or corrupt) a later
      // message: a fresh receive gets it, bit-exact.
      std::int32_t v = 0;
      const Status st = w.recv(&v, sizeof v, 0, 4);
      EXPECT_EQ(v, 99);
      EXPECT_EQ(st.bytes, sizeof v);
    } else {
      w.barrier();
      const std::int32_t v = 99;
      w.send(&v, sizeof v, 1, 4);
    }
    w.barrier();
  });
}

TEST(RequestLifecycleTest, TruncatedPostedReceiveRaisesAtWait) {
  run(2, Platform::ideal, [] {
    Comm w = world();
    if (rank() == 0) {
      const std::int64_t big = 0x0102030405060708;
      w.send(&big, sizeof big, 1, 6);
    } else {
      std::int16_t small = 0;
      Comm::Request req = w.irecv(&small, sizeof small, 0, 6);
      try {
        req.wait();
        ADD_FAILURE() << "truncated posted receive completed silently";
      } catch (const MpiError& e) {
        EXPECT_EQ(e.code(), Errc::truncation) << e.what();
      }
    }
    w.barrier();
  });
}

TEST(RequestLifecycleTest, MoveTransfersOwnership) {
  run(2, Platform::ideal, [] {
    Comm w = world();
    if (rank() == 0) {
      const std::int32_t v = 11;
      w.send(&v, sizeof v, 1, 8);
    } else {
      std::int32_t v = 0;
      Comm::Request a = w.irecv(&v, sizeof v, 0, 8);
      Comm::Request b = std::move(a);  // moved-from request must be inert
      b.wait();
      EXPECT_EQ(v, 11);
    }
    w.barrier();
  });
}

TEST(MailboxCapTest, EagerFloodRaisesResourceExhaustedAtSender) {
  Config cfg;
  cfg.nranks = 2;
  cfg.platform = Platform::ideal;
  cfg.mailbox_cap_bytes = 4096;
  int raised = 0;
  run(cfg, [&] {
    Comm w = world();
    if (rank() == 0) {
      // Flood a rank that is not receiving: the unexpected queue fills to
      // the cap and the next eager send fails cleanly at the sender
      // instead of growing without bound.
      std::vector<char> chunk(1000, 'x');
      try {
        for (int i = 0; i < 64; ++i)
          w.send(chunk.data(), chunk.size(), 1, 2);
        ADD_FAILURE() << "unbounded eager buffering past the cap";
      } catch (const MpiError& e) {
        EXPECT_EQ(e.code(), Errc::resource_exhausted) << e.what();
        ctx().core().sync();
        ++raised;
      }
      const char go = 1;
      w.send(&go, 1, 1, 3);  // fits: 4 x 1000 queued leaves slack under the cap
    } else {
      char go = 0;
      w.recv(&go, 1, 0, 3);
      // The receiver can still drain everything that was accepted.
      std::vector<char> chunk(1000);
      for (int i = 0; i < 4; ++i) {
        const Status st = w.recv(chunk.data(), chunk.size(), 0, 2);
        EXPECT_EQ(st.bytes, 1000u);
        EXPECT_EQ(chunk[0], 'x');
      }
    }
    w.barrier();
  });
  EXPECT_EQ(raised, 1);
}

TEST(MailboxCapTest, PostedReceiveIsExemptAndHighWaterTracks) {
  Config cfg;
  cfg.nranks = 2;
  cfg.platform = Platform::ideal;
  cfg.mailbox_cap_bytes = 64;
  run(cfg, [&] {
    Comm w = world();
    if (rank() == 1) {
      // A posted receive consumes the payload on delivery: the cap never
      // sees it, however large.
      std::vector<char> buf(4096);
      Comm::Request req = w.irecv(buf.data(), buf.size(), 0, 2);
      w.barrier();
      Status st;
      req.wait(&st);
      EXPECT_EQ(st.bytes, 4096u);
      w.barrier();
      // Unexpected bytes do count, and the high-water gauge records them.
      w.barrier();
      {
        ctx().core().sync();
        EXPECT_GE(ctx().core().mailbox(rank()).high_water_bytes(), 48u);
      }
      std::vector<char> chunk(48);
      w.recv(chunk.data(), chunk.size(), 0, 4);
    } else {
      w.barrier();
      std::vector<char> big(4096, 'b');
      w.send(big.data(), big.size(), 1, 2);  // exceeds cap; posted: exempt
      w.barrier();
      std::vector<char> chunk(48, 'c');
      w.send(chunk.data(), chunk.size(), 1, 4);  // 48 <= 64: queued
      w.barrier();
    }
    w.barrier();
  });
}

// iprobe() with a status is a peek: it must not move the probed message
// behind later ones (non-overtaking).
TEST(CommP2pTest, IprobeWithStatusKeepsArrivalOrder) {
  run(2, Platform::ideal, [] {
    Comm w = world();
    if (rank() == 1) {
      const char a = 'a', b = 'b';
      w.send(&a, 1, 0, 3);
      w.send(&b, 1, 0, 3);
      w.barrier();
    } else {
      w.barrier();  // both messages are queued
      Status st;
      EXPECT_TRUE(w.iprobe(1, 3, &st));
      EXPECT_EQ(st.source, 1);
      EXPECT_EQ(st.bytes, 1u);
      char first = 0, second = 0;
      w.recv(&first, 1, 1, 3);
      w.recv(&second, 1, 1, 3);
      EXPECT_EQ(first, 'a');
      EXPECT_EQ(second, 'b');
    }
  });
}

// A blocking recv() is a posted receive too: an earlier irecv() on the same
// pattern gets the first message, the later recv() the second.
TEST(CommP2pTest, IrecvThenBlockingRecvMatchInPostOrder) {
  run(2, Platform::ideal, [] {
    Comm w = world();
    if (rank() == 0) {
      int first = -1, second = -1;
      Comm::Request r = w.irecv(&first, sizeof first, kAnySource, 5);
      w.barrier();  // posted before either message is sent
      w.recv(&second, sizeof second, kAnySource, 5);
      r.wait();
      EXPECT_EQ(first, 1);
      EXPECT_EQ(second, 2);
    } else {
      w.barrier();
      for (const int v : {1, 2}) w.send(&v, sizeof v, 0, 5);
    }
  });
}

// The leader handshakes of intercomm_create() and merge() run on the
// system channel, which the mailbox cap does not cover.
TEST(MailboxCapTest, IntercommCreateAndMergeIgnoreTheCap) {
  Config cfg;
  cfg.nranks = 4;
  cfg.platform = Platform::ideal;
  cfg.mailbox_cap_bytes = 1;
  run(cfg, [] {
    Comm local = world().split(rank() < 2 ? 0 : 1, rank());
    Comm inter = local.intercomm_create(0, rank() < 2 ? 2 : 0, 11);
    EXPECT_EQ(inter.remote_size(), 2);
    Comm merged = inter.merge(/*high=*/rank() >= 2);
    EXPECT_EQ(merged.size(), 4);
    EXPECT_EQ(merged.rank(), rank());
  });
}

}  // namespace
}  // namespace mpisim

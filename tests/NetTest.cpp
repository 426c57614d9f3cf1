//===- tests/NetTest.cpp - Length framing and TCP transport tests ---------===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Covers the net layer on its own terms: FrameSplitter reassembly
// across arbitrary chunk boundaries, the poisoned-stream contract, and
// the loopback TcpTransport's datagram-over-stream semantics (delivery,
// ordering, drops to unknown ids, detach/reattach with new ports, the
// stats counters the bench reports, and the per-endpoint delivery
// threads: each handler runs on a thread of its own endpoint, so one
// that blocks holds up no other).
//
//===----------------------------------------------------------------------===//

#include "net/Framing.h"
#include "net/TcpTransport.h"
#include "rt/Bus.h"
#include "support/Sync.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <vector>

using namespace adore;
using namespace adore::net;

namespace {

/// Thread-safe frame sink with a bounded wait for the n-th arrival.
struct Catcher {
  mutable sync::Mutex Mu;
  sync::CondVar Cv;
  std::vector<std::string> Frames;

  rt::Transport::Handler handler() {
    return [this](std::string F) {
      sync::MutexLock Lock(Mu);
      Frames.push_back(std::move(F));
      Cv.notifyAll();
    };
  }

  /// Waits until at least \p N frames arrived; false on timeout.
  bool await(size_t N, uint64_t TimeoutMs = 5000) {
    auto Deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(TimeoutMs);
    sync::MutexLock Lock(Mu);
    while (Frames.size() < N) {
      if (Cv.waitUntil(Mu, Deadline) == std::cv_status::timeout &&
          Frames.size() < N)
        return false;
    }
    return true;
  }

  std::vector<std::string> snapshot() const {
    sync::MutexLock Lock(Mu);
    return Frames;
  }
};

/// A gate a handler can block on until the test opens it.
struct Gate {
  sync::Mutex Mu;
  sync::CondVar Cv;
  bool Open = false;

  void wait() {
    sync::MutexLock Lock(Mu);
    while (!Open)
      Cv.wait(Mu);
  }
  void open() {
    sync::MutexLock Lock(Mu);
    Open = true;
    Cv.notifyAll();
  }
};

/// Polls \p Pred (stats are updated on the delivery threads) up to a
/// bound.
template <typename Fn> bool eventually(Fn &&Pred, uint64_t TimeoutMs = 5000) {
  auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(TimeoutMs);
  while (!Pred()) {
    if (std::chrono::steady_clock::now() >= Deadline)
      return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// FrameSplitter
//===----------------------------------------------------------------------===//

TEST(FramingTest, RoundTripsAcrossArbitraryChunkBoundaries) {
  std::vector<std::string> Payloads = {"", "a", "hello world",
                                       std::string(1000, 'x')};
  std::string Stream;
  for (const std::string &P : Payloads) {
    ASSERT_TRUE(frameable(P));
    appendFrame(Stream, P);
  }
  // Every chunk size must reassemble the identical payload sequence —
  // the kernel owes us nothing about read() boundaries.
  for (size_t Chunk : {size_t(1), size_t(3), size_t(7), Stream.size()}) {
    FrameSplitter S;
    std::vector<std::string> Got;
    for (size_t I = 0; I < Stream.size(); I += Chunk) {
      size_t N = std::min(Chunk, Stream.size() - I);
      ASSERT_TRUE(S.feed(Stream.data() + I, N,
                         [&](std::string F) { Got.push_back(std::move(F)); }));
    }
    EXPECT_EQ(Got, Payloads) << "chunk=" << Chunk;
    EXPECT_EQ(S.pendingBytes(), 0u);
  }
}

TEST(FramingTest, FrameIsHeaderPlusPayloadBytes) {
  // The framing adds exactly four little-endian length bytes: this is
  // the "byte-identical over TCP" half of the wire-compat story.
  std::string Payload = "adore";
  std::string Framed;
  appendFrame(Framed, Payload);
  ASSERT_EQ(Framed.size(), FrameHeaderBytes + Payload.size());
  std::string Header;
  codec::putU32(Header, static_cast<uint32_t>(Payload.size()));
  EXPECT_EQ(Framed.substr(0, FrameHeaderBytes), Header);
  EXPECT_EQ(Framed.substr(FrameHeaderBytes), Payload);
}

TEST(FramingTest, OversizedHeaderPoisonsTheStream) {
  std::string Evil;
  codec::putU32(Evil, static_cast<uint32_t>(MaxFramePayload + 1));
  Evil += "whatever";
  FrameSplitter S;
  size_t Delivered = 0;
  EXPECT_FALSE(S.feed(Evil.data(), Evil.size(),
                      [&](std::string) { ++Delivered; }));
  EXPECT_EQ(Delivered, 0u);
  EXPECT_TRUE(S.poisoned());
  // Nothing later on a poisoned stream can be trusted, even a frame
  // that would have been fine on its own.
  std::string Fine;
  appendFrame(Fine, "ok");
  EXPECT_FALSE(S.feed(Fine.data(), Fine.size(),
                      [&](std::string) { ++Delivered; }));
  EXPECT_EQ(Delivered, 0u);
}

TEST(FramingTest, SplitterHandlesBackToBackFramesInOneChunk) {
  std::string Stream;
  for (int I = 0; I < 50; ++I)
    appendFrame(Stream, "frame" + std::to_string(I));
  FrameSplitter S;
  std::vector<std::string> Got;
  ASSERT_TRUE(S.feed(Stream.data(), Stream.size(),
                     [&](std::string F) { Got.push_back(std::move(F)); }));
  ASSERT_EQ(Got.size(), 50u);
  EXPECT_EQ(Got[0], "frame0");
  EXPECT_EQ(Got[49], "frame49");
}

//===----------------------------------------------------------------------===//
// TcpTransport
//===----------------------------------------------------------------------===//

TEST(TcpTransportTest, DeliversBetweenAttachedEndpoints) {
  TcpTransport T;
  Catcher A, B;
  T.attach(1, A.handler());
  T.attach(2, B.handler());
  T.post(2, "to-two");
  T.post(1, "to-one");
  ASSERT_TRUE(B.await(1));
  ASSERT_TRUE(A.await(1));
  EXPECT_EQ(B.snapshot()[0], "to-two");
  EXPECT_EQ(A.snapshot()[0], "to-one");
}

TEST(TcpTransportTest, DropsFramesToUnknownIds) {
  TcpTransport T;
  Catcher A;
  T.attach(1, A.handler());
  T.post(99, "into the void");
  // post() counts the drop itself: no endpoint is registered under 99.
  EXPECT_TRUE(eventually([&] { return T.stats().FramesDropped >= 1; }));
  EXPECT_EQ(T.stats().FramesDelivered, 0u);
}

TEST(TcpTransportTest, DeliversALargeFrameIntact) {
  TcpTransport T;
  Catcher B;
  T.attach(1, Catcher().handler()); // Unused sender-side endpoint.
  T.attach(2, B.handler());
  // 1 MiB with position-dependent bytes: any reassembly slip corrupts.
  std::string Big(1 << 20, '\0');
  for (size_t I = 0; I < Big.size(); ++I)
    Big[I] = static_cast<char>((I * 131) & 0xff);
  T.post(2, Big);
  ASSERT_TRUE(B.await(1, 10000));
  EXPECT_EQ(B.snapshot()[0], Big);
}

TEST(TcpTransportTest, PreservesPerPairPostOrder) {
  TcpTransport T;
  Catcher B;
  T.attach(2, B.handler());
  const size_t N = 1000;
  for (size_t I = 0; I < N; ++I)
    T.post(2, "seq:" + std::to_string(I));
  ASSERT_TRUE(B.await(N, 10000));
  std::vector<std::string> Got = B.snapshot();
  ASSERT_EQ(Got.size(), N);
  for (size_t I = 0; I < N; ++I)
    EXPECT_EQ(Got[I], "seq:" + std::to_string(I)) << "at " << I;
}

TEST(TcpTransportTest, ListenPortReflectsAttachment) {
  TcpTransport T;
  EXPECT_EQ(T.listenPort(7), 0);
  Catcher A;
  T.attach(7, A.handler());
  uint16_t P1 = T.listenPort(7);
  EXPECT_NE(P1, 0);
  T.detach(7);
  EXPECT_EQ(T.listenPort(7), 0);
}

TEST(TcpTransportTest, ReattachGetsANewPortAndKeepsDelivering) {
  // Detach + reattach models a node restart: the listener moves to a
  // fresh ephemeral port and senders transparently re-dial it.
  TcpTransport T;
  Catcher First;
  T.attach(2, First.handler());
  uint16_t P1 = T.listenPort(2);
  T.post(2, "before");
  ASSERT_TRUE(First.await(1));
  T.detach(2);

  Catcher Second;
  T.attach(2, Second.handler());
  uint16_t P2 = T.listenPort(2);
  EXPECT_NE(P2, 0);
  EXPECT_NE(P1, P2); // Ephemeral bind; same port would be a fluke.
  T.post(2, "after");
  ASSERT_TRUE(Second.await(1, 10000));
  EXPECT_EQ(Second.snapshot()[0], "after");
  // The old incarnation's handler never sees the new frame.
  EXPECT_EQ(First.snapshot().size(), 1u);
}

TEST(TcpTransportTest, DetachedHandlerIsNeverInvokedAgain) {
  // The rendezvous guarantee: after detach() returns, the handler is
  // retired even though frames may still be in the kernel's buffers.
  TcpTransport T;
  Catcher B;
  T.attach(2, B.handler());
  T.post(2, "one");
  ASSERT_TRUE(B.await(1));
  T.detach(2);
  size_t SeenAtDetach = B.snapshot().size();
  T.post(2, "ghost");
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(B.snapshot().size(), SeenAtDetach);
}

TEST(TcpTransportTest, StatsCountTheConversation) {
  TcpTransport T;
  Catcher A, B;
  T.attach(1, A.handler());
  T.attach(2, B.handler());
  std::string Payload(100, 'p');
  T.post(2, Payload);
  ASSERT_TRUE(B.await(1));
  TcpTransportStats S = T.stats();
  EXPECT_GE(S.Dials, 1u);
  EXPECT_GE(S.Accepts, 1u);
  EXPECT_GE(S.FramesDelivered, 1u);
  EXPECT_GE(S.BytesSent, Payload.size() + FrameHeaderBytes);
  EXPECT_GE(S.BytesReceived, Payload.size() + FrameHeaderBytes);
}

TEST(TcpTransportTest, TwoFabricsAreDisjoint) {
  // Separate instances have separate port registries — the same id on
  // another fabric is unreachable, exactly like two disjoint buses.
  TcpTransport T1, T2;
  Catcher OnT2;
  T2.attach(5, OnT2.handler());
  T1.post(5, "wrong fabric");
  EXPECT_TRUE(eventually([&] { return T1.stats().FramesDropped >= 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(OnT2.snapshot().size(), 0u);
}

TEST(TcpTransportTest, ABlockedHandlerDelaysOnlyItsOwnEndpoint) {
  // Endpoint 1's handler blocks, as a store-backed replica's does on a
  // WAL fsync. A frame to endpoint 2 must still arrive meanwhile: the
  // property that lets a replica step on its own delivery thread.
  Gate G;
  TcpTransport T;
  // Declared after T, so it opens the gate before T joins its threads.
  struct Opener {
    Gate &G;
    ~Opener() { G.open(); }
  } OpenOnExit{G};
  std::atomic<bool> Entered{false};
  T.attach(1, [&](std::string) {
    Entered.store(true);
    G.wait();
  });
  Catcher B;
  T.attach(2, B.handler());
  T.post(1, "blocks");
  ASSERT_TRUE(eventually([&] { return Entered.load(); }));
  T.post(2, "gets through");
  EXPECT_TRUE(B.await(1, 3000));
}

TEST(TcpTransportTest, HandlerRunsOnItsEndpointsDedicatedThread) {
  // Inside a handler, onDedicatedDeliveryThread holds for the handler's
  // own id and for no other; on a Bus handler and on a client thread it
  // holds for none.
  auto Probe = [](NodeId Own, Catcher &C) {
    rt::Transport::Handler H = C.handler();
    return [Own, H](std::string) {
      std::string Seen;
      for (NodeId Id : {NodeId(1), NodeId(2), NodeId(3)})
        if (rt::onDedicatedDeliveryThread(Id))
          Seen += std::to_string(Id);
      H(std::to_string(Own) + ":" + Seen);
    };
  };
  TcpTransport T;
  Catcher A, B;
  T.attach(1, Probe(1, A));
  T.attach(2, Probe(2, B));
  T.post(1, "x");
  T.post(2, "y");
  ASSERT_TRUE(A.await(1));
  ASSERT_TRUE(B.await(1));
  EXPECT_EQ(A.snapshot()[0], "1:1");
  EXPECT_EQ(B.snapshot()[0], "2:2");

  rt::Bus Net;
  Catcher OnBus;
  Net.attach(1, Probe(1, OnBus));
  Net.post(1, "z");
  ASSERT_EQ(OnBus.snapshot().size(), 1u);
  EXPECT_EQ(OnBus.snapshot()[0], "1:");
  for (NodeId Id : {NodeId(1), NodeId(2), InvalidNodeId})
    EXPECT_FALSE(rt::onDedicatedDeliveryThread(Id));
}

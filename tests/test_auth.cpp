// PPP authentication suite: MD5 pinned to the RFC 1321 test vectors, CHAP
// response values pinned to hand-computed golden vectors, the PAP/CHAP
// machines' retry/timeout/reject discipline, and full endpoints negotiating
// the Authentication-Protocol option and running the auth phase end to end
// (success, wrong secret, unknown identity, peer refusing to authenticate).
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/md5.hpp"
#include "ppp/auth.hpp"
#include "ppp/endpoint.hpp"
#include "ppp/lcp.hpp"
#include "ppp/protocols.hpp"

namespace p5::ppp {
namespace {

// ---- MD5 / golden CHAP vectors ----

TEST(Md5, Rfc1321TestSuite) {
  const auto hex = [](const char* s) {
    return md5_hex(Md5::digest(BytesView(reinterpret_cast<const u8*>(s), std::string(s).size())));
  };
  // RFC 1321 §A.5, verbatim.
  EXPECT_EQ(hex(""), "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(hex("a"), "0cc175b9c0f1b6a831c399e269772661");
  EXPECT_EQ(hex("abc"), "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(hex("message digest"), "f96b697d7cb7938d525a2f31aaf161d0");
  EXPECT_EQ(hex("abcdefghijklmnopqrstuvwxyz"), "c3fcd3d76192e4007dfb496cca67e13b");
  EXPECT_EQ(hex("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"),
            "d174ab98d277d9f5a5611c2c9f419d9f");
  EXPECT_EQ(hex("12345678901234567890123456789012345678901234567890123456789012345678901234567890"),
            "57edf4a22be3c955ac49da2e2107b67a");
}

TEST(Md5, IncrementalMatchesOneShot) {
  Bytes msg;
  for (int i = 0; i < 1000; ++i) msg.push_back(static_cast<u8>(i * 37));
  const auto whole = Md5::digest(msg);
  Md5 h;
  // Uneven split straddling the 64-octet block boundary.
  h.update(BytesView(msg.data(), 63));
  h.update(BytesView(msg.data() + 63, 2));
  h.update(BytesView(msg.data() + 65, msg.size() - 65));
  EXPECT_EQ(h.finish(), whole);
}

std::string chap_hex(u8 id, const std::string& secret, const Bytes& challenge) {
  const Bytes r = chap_md5_response(id, secret, challenge);
  Md5::Digest d{};
  std::copy(r.begin(), r.end(), d.begin());
  return md5_hex(d);
}

TEST(Chap, GoldenResponseVectors) {
  // Hand-computed MD5(id ‖ secret ‖ challenge) — independent of the Md5
  // class under test (python hashlib).
  Bytes ascending;
  for (u8 i = 0; i < 16; ++i) ascending.push_back(i);
  EXPECT_EQ(chap_hex(0x01, "secret123", ascending), "97164b93fcada5b4b41b7479c17235c7");
  EXPECT_EQ(chap_hex(0x23, "open sesame", Bytes(16, 0xAA)), "e00eaedccf034133a2ddf39790ad091e");
}

TEST(Chap, ClientEmitsGoldenResponsePacket) {
  // Drive a ChapClient with a fixed challenge and pin the whole wire packet.
  std::vector<Packet> sent;
  ChapClient client("alice", "secret123", [&](u16 proto, const Packet& p) {
    EXPECT_EQ(proto, kProtoChap);
    sent.push_back(p);
  });
  // Value-Size, Value (octets 0..15), Name, built in one pass.
  Packet challenge;
  challenge.code = kChapChallenge;
  challenge.identifier = 0x01;
  challenge.data.push_back(16);
  for (u8 i = 0; i < 16; ++i) challenge.data.push_back(i);
  for (const char c : std::string("bras")) challenge.data.push_back(static_cast<u8>(c));

  client.receive(challenge);
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].code, kChapResponse);
  EXPECT_EQ(sent[0].identifier, 0x01);
  ASSERT_GE(sent[0].data.size(), 17u + 5u);
  EXPECT_EQ(sent[0].data[0], 16);  // Value-Size
  Md5::Digest got{};
  std::copy(sent[0].data.begin() + 1, sent[0].data.begin() + 17, got.begin());
  EXPECT_EQ(md5_hex(got), "97164b93fcada5b4b41b7479c17235c7");
  const std::string name(sent[0].data.begin() + 17, sent[0].data.end());
  EXPECT_EQ(name, "alice");
}

// ---- machine-level wiring ----

AuthPolicy table_policy(std::map<std::string, std::string> accounts, unsigned bad_budget = 0,
                        unsigned rechallenge = 0) {
  AuthPolicy p;
  p.lookup = [accounts = std::move(accounts)](const std::string& id) -> std::optional<std::string> {
    const auto it = accounts.find(id);
    if (it == accounts.end()) return std::nullopt;
    return it->second;
  };
  p.max_bad_attempts = bad_budget;
  p.rechallenge_ticks = rechallenge;
  return p;
}

/// Wire two auth machines through queues (store-and-forward, like a link).
struct AuthPair {
  std::unique_ptr<AuthMachine> client, server;
  std::deque<Packet> to_client, to_server;

  void connect_pap(const std::string& id, const std::string& pw, AuthPolicy policy,
                   AuthTimeouts t = AuthTimeouts()) {
    client = std::make_unique<PapClient>(
        id, pw, [this](u16, const Packet& p) { to_server.push_back(p); }, t);
    server = std::make_unique<PapServer>(std::move(policy),
                                         [this](u16, const Packet& p) { to_client.push_back(p); });
  }
  void connect_chap(const std::string& id, const std::string& pw, AuthPolicy policy,
                    AuthTimeouts t = AuthTimeouts()) {
    client = std::make_unique<ChapClient>(
        id, pw, [this](u16, const Packet& p) { to_server.push_back(p); });
    server = std::make_unique<ChapServer>(
        "bras", std::move(policy), [this](u16, const Packet& p) { to_client.push_back(p); }, t);
  }
  void pump() {
    for (int round = 0; round < 50 && (!to_client.empty() || !to_server.empty()); ++round) {
      std::deque<Packet> qc, qs;
      std::swap(qc, to_client);
      std::swap(qs, to_server);
      for (const Packet& p : qs) server->receive(p);
      for (const Packet& p : qc) client->receive(p);
    }
  }
};

TEST(Pap, HappyPath) {
  AuthPair pair;
  pair.connect_pap("alice", "pw", table_policy({{"alice", "pw"}}));
  pair.client->start();
  pair.server->start();
  pair.pump();
  EXPECT_EQ(pair.client->result(), AuthResult::kSuccess);
  EXPECT_EQ(pair.server->result(), AuthResult::kSuccess);
  EXPECT_EQ(pair.server->peer_identity(), "alice");
  EXPECT_EQ(pair.server->counters().bad_attempts, 0u);
}

TEST(Pap, WrongSecretRejected) {
  AuthPair pair;
  pair.connect_pap("alice", "WRONG", table_policy({{"alice", "pw"}}));
  pair.client->start();
  pair.pump();
  EXPECT_EQ(pair.client->result(), AuthResult::kFailed);
  EXPECT_EQ(pair.server->result(), AuthResult::kFailed);
  EXPECT_TRUE(pair.server->peer_identity().empty());
  EXPECT_EQ(pair.server->counters().bad_attempts, 1u);
}

TEST(Pap, UnknownIdentityRejected) {
  AuthPair pair;
  pair.connect_pap("mallory", "pw", table_policy({{"alice", "pw"}}));
  pair.client->start();
  pair.pump();
  EXPECT_EQ(pair.client->result(), AuthResult::kFailed);
  EXPECT_EQ(pair.server->result(), AuthResult::kFailed);
}

TEST(Pap, RetryExhaustionFailsClosed) {
  // No authenticator on the other end: the client retransmits its budget,
  // then fails (RFC 1334 "the authentication fails" on exhaustion).
  unsigned requests = 0;
  AuthTimeouts t;
  t.max_retries = 3;
  t.retry_ticks = 2;
  PapClient client("alice", "pw", [&](u16, const Packet&) { ++requests; }, t);
  client.start();
  for (int i = 0; i < 100 && client.result() == AuthResult::kPending; ++i) client.tick();
  EXPECT_EQ(client.result(), AuthResult::kFailed);
  EXPECT_EQ(requests, 4u);  // initial + 3 retries
  EXPECT_EQ(client.counters().timeouts, 4u);
}

TEST(Pap, RetransmissionAnsweredConsistentlyAfterVerdict) {
  std::vector<Packet> replies;
  PapServer server(table_policy({{"alice", "pw"}}),
                   [&](u16, const Packet& p) { replies.push_back(p); });
  Packet req;
  req.code = kPapAuthRequest;
  req.identifier = 7;
  req.data = {5, 'a', 'l', 'i', 'c', 'e', 2, 'p', 'w'};
  server.receive(req);
  server.receive(req);  // duplicate (lost Ack): must re-Ack, not re-verify
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].code, kPapAuthAck);
  EXPECT_EQ(replies[1].code, kPapAuthAck);
  EXPECT_EQ(server.result(), AuthResult::kSuccess);
}

TEST(Pap, BadAttemptBudgetTolerates) {
  std::vector<Packet> replies;
  PapServer server(table_policy({{"alice", "pw"}}, /*bad_budget=*/1),
                   [&](u16, const Packet& p) { replies.push_back(p); });
  Packet bad;
  bad.code = kPapAuthRequest;
  bad.identifier = 1;
  bad.data = {5, 'a', 'l', 'i', 'c', 'e', 2, 'X', 'X'};
  server.receive(bad);
  EXPECT_EQ(server.result(), AuthResult::kPending);  // first miss tolerated
  Packet good = bad;
  good.identifier = 2;
  good.data = {5, 'a', 'l', 'i', 'c', 'e', 2, 'p', 'w'};
  server.receive(good);
  EXPECT_EQ(server.result(), AuthResult::kSuccess);  // retry with the right secret wins
  bad.identifier = 3;
  server.receive(bad);  // post-verdict retransmission cannot reopen it
  EXPECT_EQ(server.result(), AuthResult::kSuccess);
}

TEST(Chap, HappyPath) {
  AuthPair pair;
  pair.connect_chap("bob", "hunter2", table_policy({{"bob", "hunter2"}}));
  pair.server->start();
  pair.pump();
  EXPECT_EQ(pair.client->result(), AuthResult::kSuccess);
  EXPECT_EQ(pair.server->result(), AuthResult::kSuccess);
  EXPECT_EQ(pair.server->peer_identity(), "bob");
}

TEST(Chap, WrongSecretRejected) {
  AuthPair pair;
  pair.connect_chap("bob", "WRONG", table_policy({{"bob", "hunter2"}}));
  pair.server->start();
  pair.pump();
  EXPECT_EQ(pair.client->result(), AuthResult::kFailed);
  EXPECT_EQ(pair.server->result(), AuthResult::kFailed);
  EXPECT_EQ(pair.server->counters().bad_attempts, 1u);
}

TEST(Chap, UnknownIdentityRejected) {
  AuthPair pair;
  pair.connect_chap("ghost", "hunter2", table_policy({{"bob", "hunter2"}}));
  pair.server->start();
  pair.pump();
  EXPECT_EQ(pair.server->result(), AuthResult::kFailed);
}

TEST(Chap, ToleratedBadAttemptGetsFreshChallenge) {
  // Budget 1: the first wrong response draws a Failure *and* a fresh
  // challenge; a client that keeps using the wrong secret then exhausts the
  // budget on the re-answer.
  AuthPair pair;
  pair.connect_chap("bob", "WRONG", table_policy({{"bob", "hunter2"}}, /*bad_budget=*/1));
  pair.server->start();
  pair.pump();
  EXPECT_EQ(pair.server->result(), AuthResult::kFailed);
  EXPECT_EQ(pair.server->counters().bad_attempts, 2u);
}

TEST(Chap, SilentPeerExhaustsChallengesAndFailsClosed) {
  unsigned challenges = 0;
  AuthTimeouts t;
  t.max_retries = 2;
  t.retry_ticks = 3;
  ChapServer server("bras", table_policy({{"bob", "hunter2"}}),
                    [&](u16, const Packet&) { ++challenges; }, t);
  server.start();
  for (int i = 0; i < 100 && server.result() == AuthResult::kPending; ++i) server.tick();
  EXPECT_EQ(server.result(), AuthResult::kFailed);
  EXPECT_EQ(challenges, 3u);  // initial + 2 retries
}

TEST(Chap, StaleResponseIgnored) {
  std::vector<Packet> to_client;
  ChapServer server("bras", table_policy({{"bob", "hunter2"}}),
                    [&](u16, const Packet& p) { to_client.push_back(p); });
  server.start();
  ASSERT_EQ(to_client.size(), 1u);
  Packet stale;
  stale.code = kChapResponse;
  stale.identifier = static_cast<u8>(to_client[0].identifier + 100);
  stale.data = Bytes{16};
  stale.data.resize(17 + 3, 0);
  server.receive(stale);
  EXPECT_EQ(server.result(), AuthResult::kPending);  // neither verdict nor attempt burned
  EXPECT_EQ(server.counters().bad_attempts, 0u);
}

TEST(Chap, PeriodicRechallengeKeepsSessionHonest) {
  AuthPair pair;
  pair.connect_chap("bob", "hunter2",
                    table_policy({{"bob", "hunter2"}}, /*bad_budget=*/0, /*rechallenge=*/4));
  pair.server->start();
  pair.pump();
  ASSERT_EQ(pair.server->result(), AuthResult::kSuccess);
  auto* server = static_cast<ChapServer*>(pair.server.get());
  for (int t = 0; t < 9; ++t) {
    pair.server->tick();
    pair.pump();
  }
  EXPECT_GE(server->rechallenges(), 2u);
  EXPECT_EQ(pair.server->result(), AuthResult::kSuccess);  // re-verified, still good
}

TEST(Chap, ChallengeValuesVaryAcrossSessions) {
  // RFC 1994 §2.2: challenge values must vary. Distinct seeds (sessions)
  // must produce distinct challenges.
  Bytes first, second;
  const auto grab = [](Bytes& out) {
    return [&out](u16, const Packet& p) {
      if (p.code == kChapChallenge && !p.data.empty()) {
        out.assign(p.data.begin() + 1, p.data.begin() + 1 + p.data[0]);
      }
    };
  };
  ChapServer s1("bras", {}, grab(first), AuthTimeouts(), /*challenge_seed=*/1);
  ChapServer s2("bras", {}, grab(second), AuthTimeouts(), /*challenge_seed=*/2);
  s1.start();
  s2.start();
  ASSERT_EQ(first.size(), 16u);
  ASSERT_EQ(second.size(), 16u);
  EXPECT_NE(first, second);
}

// ---- endpoint-level: LCP option negotiation + auth phase ----

struct AuthedPair {
  std::unique_ptr<PppEndpoint> client, server;
  std::deque<Bytes> to_client, to_server;

  /// `server` demands `proto`; `client` presents identity/secret.
  void build(AuthProto proto, const std::string& id, const std::string& secret,
             std::map<std::string, std::string> accounts, bool client_allows_auth = true) {
    PppEndpoint::Config cc, cs;
    cc.ipcp.local_address = 0x0A000002;
    cc.auth.identity = id;
    cc.auth.secret = secret;
    cc.lcp.allow_pap = client_allows_auth;
    cc.lcp.allow_chap = client_allows_auth;
    cs.ipcp.local_address = 0x0A000001;
    cs.lcp.require_auth = proto;
    cs.auth.policy = table_policy(std::move(accounts));
    client = std::make_unique<PppEndpoint>(
        "cli", cc, [this](BytesView w) { to_server.emplace_back(w.begin(), w.end()); });
    server = std::make_unique<PppEndpoint>(
        "srv", cs, [this](BytesView w) { to_client.emplace_back(w.begin(), w.end()); });
  }
  void pump() {
    for (int round = 0; round < 100 && (!to_client.empty() || !to_server.empty()); ++round) {
      std::deque<Bytes> qc, qs;
      std::swap(qc, to_client);
      std::swap(qs, to_server);
      for (const Bytes& w : qs) server->wire_rx(w);
      for (const Bytes& w : qc) client->wire_rx(w);
    }
  }
  void run(int ticks = 40) {
    client->open();
    server->open();
    client->lower_up();
    server->lower_up();
    for (int i = 0; i < ticks; ++i) {
      pump();
      client->tick();
      server->tick();
    }
    pump();
  }
};

TEST(EndpointAuth, ChapSuccessReachesNetworkPhase) {
  AuthedPair pair;
  pair.build(AuthProto::kChap, "alice", "pw1", {{"alice", "pw1"}});
  pair.run();
  EXPECT_EQ(pair.server->phase(), Phase::kNetwork);
  EXPECT_EQ(pair.client->phase(), Phase::kNetwork);
  EXPECT_EQ(pair.server->auth_result(), AuthResult::kSuccess);
  EXPECT_EQ(pair.server->authenticated_peer(), "alice");
  EXPECT_TRUE(pair.server->ip_ready());
  EXPECT_TRUE(pair.client->ip_ready());
}

TEST(EndpointAuth, PapSuccessReachesNetworkPhase) {
  AuthedPair pair;
  pair.build(AuthProto::kPap, "alice", "pw1", {{"alice", "pw1"}});
  pair.run();
  EXPECT_EQ(pair.server->auth_result(), AuthResult::kSuccess);
  EXPECT_EQ(pair.server->authenticated_peer(), "alice");
  EXPECT_TRUE(pair.client->ip_ready());
}

TEST(EndpointAuth, ChapWrongSecretTearsLinkDown) {
  AuthedPair pair;
  pair.build(AuthProto::kChap, "alice", "WRONG", {{"alice", "pw1"}});
  pair.run();
  EXPECT_EQ(pair.server->auth_result(), AuthResult::kFailed);
  EXPECT_FALSE(pair.server->ip_ready());
  EXPECT_FALSE(pair.client->ip_ready());
  EXPECT_NE(pair.server->phase(), Phase::kNetwork);
}

TEST(EndpointAuth, PapUnknownIdentityTearsLinkDown) {
  AuthedPair pair;
  pair.build(AuthProto::kPap, "ghost", "pw1", {{"alice", "pw1"}});
  pair.run();
  EXPECT_EQ(pair.server->auth_result(), AuthResult::kFailed);
  EXPECT_FALSE(pair.client->ip_ready());
}

TEST(EndpointAuth, PeerRefusingAuthFailsClosedByDefault) {
  // Client Configure-Rejects the Authentication-Protocol option; the server
  // demanded it and did not mark it optional, so the link must not open.
  AuthedPair pair;
  pair.build(AuthProto::kChap, "alice", "pw1", {{"alice", "pw1"}},
             /*client_allows_auth=*/false);
  pair.run();
  EXPECT_EQ(pair.server->auth_result(), AuthResult::kFailed);
  EXPECT_FALSE(pair.server->ip_ready());
}

TEST(EndpointAuth, NakSteersPapDemandToChap) {
  // Server demands PAP; client disallows PAP but allows CHAP. The client
  // Naks the option toward CHAP and the server adopts it: the session still
  // authenticates, via CHAP.
  AuthedPair pair;
  PppEndpoint::Config cc, cs;
  cc.ipcp.local_address = 0x0A000002;
  cc.auth.identity = "alice";
  cc.auth.secret = "pw1";
  cc.lcp.allow_pap = false;
  cc.lcp.allow_chap = true;
  cs.ipcp.local_address = 0x0A000001;
  cs.lcp.require_auth = AuthProto::kPap;
  cs.auth.policy = table_policy({{"alice", "pw1"}});
  pair.client = std::make_unique<PppEndpoint>(
      "cli", cc, [&pair](BytesView w) { pair.to_server.emplace_back(w.begin(), w.end()); });
  pair.server = std::make_unique<PppEndpoint>(
      "srv", cs, [&pair](BytesView w) { pair.to_client.emplace_back(w.begin(), w.end()); });
  pair.run();
  EXPECT_EQ(pair.server->auth_result(), AuthResult::kSuccess);
  ASSERT_NE(pair.server->authenticator(), nullptr);
  EXPECT_EQ(pair.server->authenticator()->protocol(), kProtoChap);
  EXPECT_TRUE(pair.client->ip_ready());
}

TEST(EndpointAuth, MutualAuthentication) {
  // Both sides demand CHAP of each other; both must succeed before Network.
  AuthedPair pair;
  PppEndpoint::Config cc, cs;
  cc.ipcp.local_address = 0x0A000002;
  cc.lcp.require_auth = AuthProto::kChap;
  cc.auth.identity = "cli-id";
  cc.auth.secret = "cli-pw";
  cc.auth.policy = table_policy({{"srv-id", "srv-pw"}});
  cs.ipcp.local_address = 0x0A000001;
  cs.lcp.require_auth = AuthProto::kChap;
  cs.auth.identity = "srv-id";
  cs.auth.secret = "srv-pw";
  cs.auth.policy = table_policy({{"cli-id", "cli-pw"}});
  pair.client = std::make_unique<PppEndpoint>(
      "cli", cc, [&pair](BytesView w) { pair.to_server.emplace_back(w.begin(), w.end()); });
  pair.server = std::make_unique<PppEndpoint>(
      "srv", cs, [&pair](BytesView w) { pair.to_client.emplace_back(w.begin(), w.end()); });
  pair.run();
  EXPECT_EQ(pair.server->auth_result(), AuthResult::kSuccess);
  EXPECT_EQ(pair.client->auth_result(), AuthResult::kSuccess);
  EXPECT_EQ(pair.server->authenticated_peer(), "cli-id");
  EXPECT_EQ(pair.client->authenticated_peer(), "srv-id");
  EXPECT_TRUE(pair.server->ip_ready());
}

}  // namespace
}  // namespace p5::ppp

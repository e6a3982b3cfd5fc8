#include "ppp/broker.hpp"

#include <deque>
#include <thread>

#include "common/check.hpp"
#include "common/counters.hpp"
#include "common/rng.hpp"

namespace p5::ppp::broker {

const char* to_string(Outcome o) {
  switch (o) {
    case Outcome::kPending: return "pending";
    case Outcome::kNegotiated: return "negotiated";
    case Outcome::kFailed: return "failed";
    case Outcome::kAbandoned: return "abandoned";
  }
  return "?";
}

SessionLedger& SessionLedger::operator+=(const SessionLedger& o) {
  return CounterBlock<SessionLedger>::merge(*this, o);
}

SessionBroker::SessionBroker(BrokerConfig cfg) : cfg_(std::move(cfg)) {}
SessionBroker::~SessionBroker() = default;

std::optional<u64> SessionBroker::open_session(WireTx tx) {
  if (cfg_.max_half_open != 0 && pending_ >= cfg_.max_half_open) {
    // Half-open flood valve: refuse admission until pending sessions settle.
    ++ledger_.rejected_half_open;
    return std::nullopt;
  }
  const u64 id = sessions_.size();

  PppEndpoint::Config ec;
  ec.lcp.mru = cfg_.mru;
  ec.lcp.require_auth = cfg_.require_auth;
  ec.ipcp.local_address = cfg_.gateway_address;
  ec.ipcp.assign_peer_address = cfg_.address_base + static_cast<u32>(id);
  ec.ipcp.request_vj = cfg_.request_vj;
  ec.ipcp.vj_max_slot_id = cfg_.vj_max_slot_id;
  ec.auth.name = cfg_.chap_name;
  ec.auth.policy.lookup = cfg_.accounts;
  ec.auth.policy.max_bad_attempts = cfg_.max_bad_attempts;
  ec.auth.timeouts = cfg_.auth_timeouts;
  ec.fsm_timeouts = cfg_.fsm_timeouts;

  Session s;
  s.endpoint = std::make_unique<PppEndpoint>("brs-" + std::to_string(id), ec, std::move(tx));
  s.endpoint->open();
  s.endpoint->lower_up();
  sessions_.push_back(std::move(s));
  ++ledger_.started;
  ++pending_;
  return id;
}

void SessionBroker::wire_rx(u64 session, BytesView octets) {
  if (session >= sessions_.size()) return;
  Session& s = sessions_[static_cast<std::size_t>(session)];
  s.endpoint->wire_rx(octets);
  poll(session, s);
}

void SessionBroker::tick() {
  for (u64 id = 0; id < sessions_.size(); ++id) tick_session(id);
}

void SessionBroker::tick_session(u64 session) {
  if (session >= sessions_.size()) return;
  Session& s = sessions_[static_cast<std::size_t>(session)];
  s.endpoint->tick();
  if (s.outcome == Outcome::kPending) {
    ++s.age_ticks;
    if (s.age_ticks >= cfg_.session_deadline_ticks) {
      // Deadline: a peer that never spoke was a half-open probe (abandoned);
      // one that spoke but never converged is a negotiation failure.
      s.endpoint->close();
      settle(session, s, s.endpoint->stats().frames_rx == 0 ? Outcome::kAbandoned
                                                            : Outcome::kFailed);
      return;
    }
  }
  poll(session, s);
}

void SessionBroker::close_session(u64 session) {
  if (session >= sessions_.size()) return;
  Session& s = sessions_[static_cast<std::size_t>(session)];
  s.endpoint->close();
  if (s.outcome == Outcome::kPending) settle(session, s, Outcome::kAbandoned);
}

void SessionBroker::abandon_pending() {
  for (u64 id = 0; id < sessions_.size(); ++id) {
    Session& s = sessions_[static_cast<std::size_t>(id)];
    if (s.outcome != Outcome::kPending) continue;
    s.endpoint->close();
    settle(id, s, Outcome::kAbandoned);
  }
}

PppEndpoint* SessionBroker::endpoint(u64 session) {
  if (session >= sessions_.size()) return nullptr;
  return sessions_[static_cast<std::size_t>(session)].endpoint.get();
}

Outcome SessionBroker::outcome(u64 session) const {
  P5_ASSERT(session < sessions_.size());
  return sessions_[static_cast<std::size_t>(session)].outcome;
}

void SessionBroker::settle(u64 id, Session& s, Outcome o) {
  (void)id;
  P5_ASSERT(s.outcome == Outcome::kPending);
  s.outcome = o;
  P5_ASSERT(pending_ > 0);
  --pending_;
  switch (o) {
    case Outcome::kNegotiated: ++ledger_.negotiated; break;
    case Outcome::kFailed: ++ledger_.failed; break;
    case Outcome::kAbandoned: ++ledger_.abandoned; break;
    case Outcome::kPending: break;
  }
}

void SessionBroker::poll(u64 id, Session& s) {
  if (s.outcome == Outcome::kPending) {
    if (s.endpoint->ip_ready()) {
      s.was_ready = true;
      settle(id, s, Outcome::kNegotiated);
      return;
    }
    if (s.endpoint->auth_result() == AuthResult::kFailed) {
      ++ledger_.auth_failures;
      settle(id, s, Outcome::kFailed);
      return;
    }
    // Administratively Closed LCP means the endpoint itself gave up (e.g.
    // the peer rejected a mandatory option). Stopped is NOT terminal: a
    // listening FSM revives on the peer's next Configure-Request, so only
    // the deadline settles silent/looping peers.
    if (s.endpoint->lcp().state() == State::kClosed) {
      settle(id, s, Outcome::kFailed);
    }
    return;
  }
  if (s.outcome == Outcome::kNegotiated) {
    const bool ready = s.endpoint->ip_ready();
    if (ready && !s.was_ready) ++ledger_.renegotiations;
    s.was_ready = ready;
    // A live session whose rechallenge or renegotiation authentication
    // failed is torn down by the endpoint; the ledger keeps its single
    // negotiated classification (fates are per-session, not per-attempt).
  }
}

// ---- negotiation storm harness -----------------------------------------

AuthPolicy::SecretLookup
make_account_table(std::unordered_map<std::string, std::string> accounts) {
  auto table = std::make_shared<std::unordered_map<std::string, std::string>>(std::move(accounts));
  return [table](const std::string& id) -> std::optional<std::string> {
    const auto it = table->find(id);
    if (it == table->end()) return std::nullopt;
    return it->second;
  };
}

namespace {

/// Default storm account scheme: identity "user-N" has secret "pw-N".
std::optional<std::string> storm_lookup(const std::string& id) {
  if (id.rfind("user-", 0) != 0) return std::nullopt;
  return "pw-" + id.substr(5);
}

struct ShardResult {
  SessionLedger ledger;
  u64 clients_open = 0;
  u64 vj_sessions = 0;
  u64 ticks = 0;
  u64 client_auth_failures = 0;
};

/// One subscriber line: the client endpoint, its broker session id, and the
/// two in-flight octet queues (with impairment taps applied at enqueue).
struct Line {
  u64 global_id = 0;
  std::optional<u64> server_id;
  std::unique_ptr<PppEndpoint> client;  ///< null: half-open (silent) subscriber
  std::vector<Bytes> to_server;
  std::vector<Bytes> to_client;
  std::function<void(Bytes&)> tap_c2s;
  std::function<void(Bytes&)> tap_s2c;
  Xoshiro256 rng{0};  ///< per-session decisions: shard-count invariant
  std::vector<unsigned> flap_after;  ///< ready-tick delay before each flap
  std::size_t flap_idx = 0;
  unsigned ready_ticks = 0;
  bool flap_in_progress = false;
};

/// Cap on the geometric flap-delay draw. A session that stays open this many
/// ticks without its next flap firing forfeits the rest of its plan.
constexpr unsigned kFlapHorizon = 64;

void run_shard(const StormConfig& cfg, u64 first_session, u64 n_sessions, ShardResult& out) {
  BrokerConfig bc = cfg.broker;
  if (!bc.accounts) bc.accounts = storm_lookup;
  SessionBroker broker(bc);
  std::deque<Line> lines;  // deque: stable addresses for the tx closures

  const auto admit = [&](u64 global_id) {
    lines.emplace_back();
    Line& line = lines.back();
    line.global_id = global_id;
    // Per-session RNG keyed on the global id so shard count never changes
    // any session's behavior.
    line.rng = Xoshiro256(cfg.seed ^ (0x9E3779B97F4A7C15ull * (global_id + 1)));
    const bool half_open = line.rng.chance(cfg.half_open_fraction);
    const bool bad_secret = !half_open && line.rng.chance(cfg.bad_secret_fraction);
    const bool unknown_id = !half_open && !bad_secret && line.rng.chance(cfg.unknown_id_fraction);
    // Flap plan, drawn up-front as geometric ready-tick delays. Runtime draws
    // would make the draw count depend on how long the *shard* runs, breaking
    // shard invariance; a fixed plan keyed on the session's own RNG does not.
    if (cfg.flap_chance > 0.0) {
      for (unsigned k = 0; k < cfg.max_flaps_per_session; ++k) {
        unsigned delay = 1;
        while (delay <= kFlapHorizon && !line.rng.chance(cfg.flap_chance)) ++delay;
        if (delay > kFlapHorizon) break;
        line.flap_after.push_back(delay);
      }
    }
    if (cfg.make_tap) {
      line.tap_c2s = cfg.make_tap(global_id, /*server_to_client=*/false);
      line.tap_s2c = cfg.make_tap(global_id, /*server_to_client=*/true);
    }

    Line* lp = &line;
    line.server_id = broker.open_session([lp](BytesView b) {
      Bytes buf(b.begin(), b.end());
      if (lp->tap_s2c) lp->tap_s2c(buf);
      if (!buf.empty()) lp->to_client.push_back(std::move(buf));
    });
    if (!line.server_id) return;  // admission refused: no line comes up
    if (half_open) return;        // subscriber never speaks

    PppEndpoint::Config ec;
    ec.lcp.mru = cfg.broker.mru;
    ec.ipcp.local_address = 0;  // request assignment
    ec.ipcp.request_vj = cfg.client_request_vj;
    ec.auth.identity = unknown_id ? "ghost-" + std::to_string(global_id)
                                  : "user-" + std::to_string(global_id);
    ec.auth.secret = bad_secret ? "wrong" : "pw-" + std::to_string(global_id);
    ec.auth.timeouts = cfg.broker.auth_timeouts;
    ec.fsm_timeouts = cfg.broker.fsm_timeouts;
    if (cfg.client_config_hook) cfg.client_config_hook(global_id, ec.lcp, ec.ipcp);

    line.client = std::make_unique<PppEndpoint>(
        "cli-" + std::to_string(global_id), ec, [lp](BytesView b) {
          Bytes buf(b.begin(), b.end());
          if (lp->tap_c2s) lp->tap_c2s(buf);
          if (!buf.empty()) lp->to_server.push_back(std::move(buf));
        });
    line.client->open();
    line.client->lower_up();
  };

  // Drain the in-flight queues to a fixpoint; returns octets moved.
  const auto pump = [&]() {
    std::size_t moved = 0;
    bool progress = true;
    while (progress) {
      progress = false;
      for (Line& line : lines) {
        if (!line.to_server.empty() && line.server_id) {
          std::vector<Bytes> batch;
          batch.swap(line.to_server);  // swap first: delivery may enqueue more
          for (const Bytes& b : batch) {
            moved += b.size();
            broker.wire_rx(*line.server_id, b);
          }
          progress = true;
        }
        if (!line.to_client.empty()) {
          std::vector<Bytes> batch;
          batch.swap(line.to_client);
          for (const Bytes& b : batch) {
            moved += b.size();
            if (line.client) line.client->wire_rx(b);
          }
          progress = true;
        }
      }
    }
    return moved;
  };

  u64 admitted = 0;
  u64 tick = 0;
  unsigned quiet_ticks = 0;
  for (; tick < cfg.max_ticks; ++tick) {
    for (unsigned k = 0; k < cfg.admit_per_tick && admitted < n_sessions; ++k, ++admitted) {
      admit(first_session + admitted);
    }
    std::size_t moved = pump();
    broker.tick();
    for (Line& line : lines) {
      if (line.client) line.client->tick();
    }
    moved += pump();

    // Renegotiation flaps: an open subscriber drops and immediately redials,
    // on the schedule drawn at admission (counted in its own ready ticks).
    for (Line& line : lines) {
      if (!line.client || line.flap_idx >= line.flap_after.size()) continue;
      if (line.flap_in_progress) {
        if (!line.client->ip_ready()) continue;
        line.flap_in_progress = false;
      }
      if (!line.client->ip_ready()) continue;
      if (++line.ready_ticks < line.flap_after[line.flap_idx]) continue;
      ++line.flap_idx;
      line.ready_ticks = 0;
      line.flap_in_progress = true;
      line.client->close();
      moved += pump();
      line.client->open();
      moved += pump();
    }

    // An open session with flaps still scheduled WILL fire within the horizon;
    // quiescing before then would cut plans short shard-dependently.
    bool flaps_pending = false;
    for (const Line& line : lines) {
      if (line.client && line.flap_idx < line.flap_after.size() &&
          !line.flap_in_progress && line.client->ip_ready()) {
        flaps_pending = true;
        break;
      }
    }

    if (admitted == n_sessions && broker.quiescent() && moved == 0 && !flaps_pending) {
      if (++quiet_ticks >= 5) break;
    } else {
      quiet_ticks = 0;
    }
  }
  broker.abandon_pending();
  pump();

  out.ledger = broker.ledger();
  out.ticks = tick;
  for (Line& line : lines) {
    if (line.client && line.client->ip_ready()) ++out.clients_open;
    if (line.client && line.client->auth_result() == AuthResult::kFailed)
      ++out.client_auth_failures;
    if (line.server_id && broker.outcome(*line.server_id) == Outcome::kNegotiated) {
      const VjNegotiation& vj = broker.endpoint(*line.server_id)->ipcp().vj();
      if (vj.rx || vj.tx) ++out.vj_sessions;
    }
  }
}

}  // namespace

StormReport run_negotiation_storm(const StormConfig& cfg) {
  const unsigned shards = std::max(1u, cfg.shards);
  std::vector<ShardResult> results(shards);

  // Partition sessions across shards. Sessions are fully independent, so
  // the partition affects wall-clock only; every per-session decision is
  // keyed on the global session id.
  std::vector<std::pair<u64, u64>> ranges;
  u64 base = 0;
  for (unsigned s = 0; s < shards; ++s) {
    const u64 n = cfg.sessions / shards + (s < cfg.sessions % shards ? 1 : 0);
    ranges.emplace_back(base, n);
    base += n;
  }

  if (shards == 1) {
    run_shard(cfg, ranges[0].first, ranges[0].second, results[0]);
  } else {
    std::vector<std::thread> workers;
    workers.reserve(shards);
    for (unsigned s = 0; s < shards; ++s) {
      workers.emplace_back([&cfg, &results, &ranges, s]() {
        run_shard(cfg, ranges[s].first, ranges[s].second, results[s]);
      });
    }
    for (std::thread& w : workers) w.join();
  }

  StormReport report;
  for (const ShardResult& r : results) {
    report.ledger += r.ledger;
    report.clients_open += r.clients_open;
    report.vj_sessions += r.vj_sessions;
    report.client_auth_failures += r.client_auth_failures;
    report.ticks = std::max(report.ticks, r.ticks);
  }
  return report;
}

}  // namespace p5::ppp::broker

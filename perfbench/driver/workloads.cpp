#include "workloads.hpp"

#include <chrono>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "ckpt/manager.hpp"
#include "fields.hpp"
#include "layers.hpp"
#include "net/protocol.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "server/service.hpp"

namespace pb {
namespace {

// Open-loop rate, fixed so parent and child commits receive the same
// offered load. On a shared 4-core x86-64 VM whose speed drifts by 1.6x
// over minutes, svc-fig9-mixed's closed loop ran 24 to 54 puts/s, each
// followed by a get: 48 to 108 ops/s. The rate is half the slowest
// capacity seen, and each client, with one request in flight, must
// finish a put and a get within two of its periods.
constexpr double kMixedOpRate = 24.0;  // svc-fig9-mixed puts+gets/s over 4 clients

constexpr int kClients = 4;
constexpr int kSetupReps = 3;
constexpr std::size_t kMixedSnapshots = 4;
constexpr std::size_t kCkptSnapshots = 4;

void sleep_until_s(double t) {
  const double dt = t - now_s();
  if (dt > 0) std::this_thread::sleep_for(std::chrono::duration<double>(dt));
}

double timed(auto&& fn) {
  const double t0 = now_s();
  fn();
  return now_s() - t0;
}

/// Pass schedule: an untraced run measures every phase for the full
/// time; a traced run measures an untraced half, then a traced half, so
/// the tracing overhead is the difference between the two.
struct Pass {
  int index;
  double seconds;
};

std::vector<Pass> passes(const Config& cfg) {
  if (!cfg.trace) return {{0, cfg.seconds}};
  return {{0, cfg.seconds / 2}, {1, cfg.seconds / 2}};
}

wck::CompressionParams codec_params() { return wck::CompressionParams{}; }

/// Eq. 6 mean and maximum relative error of each distinct input, averaged
/// over the inputs (each field normalized by its own value range).
void finish_quality(const OracleSet& oracles, Record& rec) {
  for (const Oracle& o : oracles.all()) {
    rec.mean_rel_error += o.error.mean_rel / static_cast<double>(oracles.size());
    rec.max_rel_error += o.error.max_rel / static_cast<double>(oracles.size());
  }
}

// ------------------------------------------------------------ ckpt-fig9

/// ckpt-fig9 state: the registry of the three NICAM fields at each of
/// kCkptSnapshots seeded moments; iteration i checkpoints moment
/// i % kCkptSnapshots, as a running simulation would.
struct CkptState {
  explicit CkptState(const Config& cfg, const std::filesystem::path& dir, Tracer& tracer,
                     Failures& failures)
      : oracles(make_inputs(cfg.seed), codec),
        checked(codec, oracles, tracer, failures),
        io(tracer, {}),
        fields(oracles.size()),
        write_regs(kCkptSnapshots) {
    for (std::size_t i = 0; i < oracles.size(); ++i) {
      fields[i] = oracles[i].input;
      write_regs[i / kFields].add(kNames[i % kFields], &fields[i]);
    }
    for (std::size_t k = 0; k < kFields; ++k) restore_reg.add(kNames[k], &restored[k]);
    manager = std::make_unique<wck::CheckpointManager>(dir, checked,
                                                       wck::CheckpointManagerOptions{}, &io);
  }

  /// Inputs in snapshot-major order: index = snapshot * kFields + kind.
  static std::vector<wck::NdArray<double>> make_inputs(std::uint64_t seed) {
    std::vector<wck::NdArray<double>> in;
    for (std::size_t s = 0; s < kCkptSnapshots; ++s) {
      for (std::size_t k = 0; k < kFields; ++k) {
        in.push_back(paper_field(static_cast<int>(k), seed, s));
      }
    }
    return in;
  }

  static constexpr std::size_t kFields = 3;
  static constexpr const char* kNames[kFields] = {"pressure", "temperature", "velocity"};
  wck::WaveletLossyCodec codec{codec_params()};
  OracleSet oracles;
  CheckedCodec checked;
  TimedIo io;
  std::vector<wck::NdArray<double>> fields;  // sized once: registries point into it
  std::array<wck::NdArray<double>, kFields> restored;
  std::vector<wck::CheckpointRegistry> write_regs;
  wck::CheckpointRegistry restore_reg;
  std::unique_ptr<wck::CheckpointManager> manager;
  std::uint64_t step = 0;
};

/// One write + restore iteration; appends both ops, tagged `phase`.
void ckpt_iteration(CkptState& st, char phase, int pass, Tracer& tracer, Failures& failures,
                    std::vector<Op>& ops) {
  const std::uint64_t step = ++st.step;
  const std::size_t snapshot = step % kCkptSnapshots;
  const wck::CheckpointRegistry& reg = st.write_regs[snapshot];
  Op w{'p', phase, pass, 0, 0, 0, true, 0};
  const std::uint64_t wid = tracer.on() ? tracer.next_id() : 0;
  tracer.open(wid);
  w.due = w.send = now_s();
  try {
    (void)st.manager->write(reg, step);
  } catch (const std::exception& e) {
    w.ok = false;
    failures.add(std::string("write: ") + e.what());
  }
  w.done = now_s();
  tracer.close();
  if (tracer.on()) tracer.record(Span{wid, 0, "ckpt.write", "", w.send, w.done, 0, 0});
  if (w.ok) w.stored = static_cast<double>(st.manager->generations().front().size);
  ops.push_back(w);

  for (auto& r : st.restored) r = wck::NdArray<double>();
  Op g{'g', phase, pass, 0, 0, 0, true, 0};
  const std::uint64_t gid = tracer.on() ? tracer.next_id() : 0;
  tracer.open(gid);
  g.due = g.send = now_s();
  std::optional<wck::RestoreOutcome> out;
  try {
    out = st.manager->restore(st.restore_reg);
  } catch (const std::exception& e) {
    g.ok = false;
    failures.add(std::string("restore: ") + e.what());
  }
  g.done = now_s();
  tracer.close();
  if (tracer.on()) tracer.record(Span{gid, 0, "ckpt.restore", "", g.send, g.done, 0, 0});
  if (out && (out->step != step || out->source != wck::RestoreSource::kPrimary)) {
    g.ok = false;
    failures.add("restore: not the newest generation");
  } else if (out) {
    for (std::size_t k = 0; k < CkptState::kFields; ++k) {
      if (!same_bits(st.restored[k], st.oracles[snapshot * CkptState::kFields + k].decoded)) {
        g.ok = false;
        failures.add("restore: field differs from the oracle round trip");
        break;
      }
    }
  }
  ops.push_back(g);
}

void run_ckpt(const Config& cfg, Record& rec, Failures& failures) {
  Tracer tracer;
  Tracer::bind_thread(0);
  std::unique_ptr<CkptState> st;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    st.reset();
    const auto dir = cfg.work_dir / ("ckpt" + std::to_string(rep));
    rec.setup_s.push_back(timed([&] {
      st = std::make_unique<CkptState>(cfg, dir, tracer, failures);
      ckpt_iteration(*st, 'w', 0, tracer, failures, rec.ops);  // lazy setup, untimed
    }));
  }

  for (const Pass& p : passes(cfg)) {
    tracer.set_on(p.index == 1);
    PhaseInfo ph{'c', p.index, now_s(), 0, 0};
    const double end = ph.start + p.seconds;
    while (now_s() < end) ckpt_iteration(*st, 'c', p.index, tracer, failures, rec.ops);
    ph.end = now_s();
    rec.phases.push_back(ph);
  }
  tracer.set_on(false);

  rec.field_bytes = static_cast<double>(st->write_regs[0].total_bytes());

  if (cfg.trace) {
    tracer.set_on(true);
    rec.replay_diverged = replay_layers(st->oracles, codec_params(), 1,
                                        small_tile(cfg.seed), st->fields[1], tracer);
    tracer.set_on(false);
  }
  finish_quality(st->oracles, rec);
  rec.spans = tracer.take();
}

// -------------------------------------------------------- service common

/// In-process store: CheckpointService behind a StoreServer on a Unix
/// socket, plus one StoreClient per client thread.
struct Store {
  Store(const std::filesystem::path& root, const std::string& socket, const wck::Codec& codec,
        wck::IoBackend& io, std::uint64_t seed)
      : service(codec, service_options(root), &io), server(service, socket) {
    for (int c = 0; c < kClients; ++c) {
      // A fixed seed per client keeps the put request ids reproducible.
      wck::StoreClientOptions o;
      o.seed = seed * 16 + static_cast<std::uint64_t>(c) + 1;
      clients.push_back(std::make_unique<wck::StoreClient>(wck::StoreClient::connect(socket, o)));
    }
  }

  static wck::server::CheckpointServiceOptions service_options(const std::filesystem::path& root) {
    wck::server::CheckpointServiceOptions o;
    o.root = root;
    return o;
  }

  wck::server::CheckpointService service;
  wck::server::StoreServer server;  // destroyed after the clients: stop() drains them
  std::vector<std::unique_ptr<wck::StoreClient>> clients;
};

/// Everything a service workload sets up before timing starts.
struct SvcState {
  SvcState(const Config& cfg, int rep, std::vector<wck::NdArray<double>> inputs,
           std::map<std::string, int> tenant_client, Tracer& tracer, Failures& failures)
      : oracles(std::move(inputs), codec),
        checked(codec, oracles, tracer, failures),
        io(tracer, std::move(tenant_client)),
        store(cfg.work_dir / ("store" + std::to_string(rep)),
              cfg.socket_base + std::to_string(rep), checked, io, cfg.seed) {}

  wck::WaveletLossyCodec codec{codec_params()};
  OracleSet oracles;
  CheckedCodec checked;
  TimedIo io;
  Store store;
};

/// Per-client bookkeeping of what each tenant should hold.
struct TenantState {
  std::string name;
  std::uint64_t step = 0;
  std::size_t input = 0;  ///< oracle index of the newest committed put
};

/// Sends one put of oracle `input` as tenant's next step; verifies the
/// reply; in a traced pass also replays the put's wire encode/decode.
Op do_put(wck::StoreClient& client, TenantState& t, std::size_t input, const OracleSet& oracles,
          double due, char phase, int pass, Tracer& tracer, Failures& failures) {
  const wck::NdArray<double>& field = oracles[input].input;
  const std::uint64_t step = t.step + 1;
  Op op{'p', phase, pass, due, 0, 0, true, 0};
  const std::uint64_t id = tracer.on() ? tracer.next_id() : 0;
  tracer.open(id);
  op.send = now_s();
  try {
    const wck::net::PutOkResponse r = client.put(t.name, step, field);
    if (r.step != step || r.deduplicated) {
      op.ok = false;
      failures.add("put: reply does not acknowledge a fresh commit of the step");
    }
    op.stored = static_cast<double>(r.stored_bytes);
  } catch (const std::exception& e) {
    op.ok = false;
    failures.add(std::string("put: ") + e.what());
  }
  op.done = now_s();
  tracer.close();
  t.step = step;
  if (op.ok) t.input = input;
  if (tracer.on()) {
    tracer.record(Span{id, 0, "client.put", "", op.send, op.done,
                       static_cast<double>(field.size_bytes()), op.stored});
    wck::net::PutRequest req;
    req.tenant = t.name;
    req.step = step;
    req.shape = field.shape();
    req.values.assign(field.values().begin(), field.values().end());
    tracer.open(id);
    wck::Bytes frame;
    {
      ScopedSpan s(tracer, "replay.net.put_encode");
      frame = wck::net::encode_frame(static_cast<std::uint8_t>(wck::net::MessageType::kPut),
                                     wck::net::encode(req));
      s.set_counts(static_cast<double>(frame.size()), 0.0);
    }
    {
      ScopedSpan s(tracer, "replay.net.put_decode");
      const wck::net::AnyMessage m = wck::net::decode_message(wck::net::decode_frame(frame));
      s.set_counts(static_cast<double>(frame.size()), 0.0);
      if (!std::holds_alternative<wck::net::PutRequest>(m)) failures.add("put replay decode");
    }
    tracer.close();
  }
  return op;
}

/// Gets tenant's newest generation and checks it against the oracle of
/// the last committed put, bit for bit.
Op do_get(wck::StoreClient& client, const TenantState& t, const OracleSet& oracles, double due,
          char phase, int pass, Tracer& tracer, Failures& failures) {
  Op op{'g', phase, pass, due, 0, 0, true, 0};
  const std::uint64_t id = tracer.on() ? tracer.next_id() : 0;
  tracer.open(id);
  op.send = now_s();
  std::optional<wck::StoreClient::GetResult> r;
  try {
    r = client.get(t.name);
  } catch (const std::exception& e) {
    op.ok = false;
    failures.add(std::string("get: ") + e.what());
  }
  op.done = now_s();
  tracer.close();
  if (r) {
    if (r->step != t.step || r->source != wck::RestoreSource::kPrimary) {
      op.ok = false;
      failures.add("get: not the newest generation");
    } else if (!same_bits(r->array, oracles[t.input].decoded)) {
      op.ok = false;
      failures.add("get: field differs from the oracle round trip");
    }
  }
  if (tracer.on()) {
    tracer.record(Span{id, 0, "client.get", "", op.send, op.done,
                       r ? static_cast<double>(r->array.size_bytes()) : 0.0, 0.0});
    if (r) {
      wck::net::GetOkResponse resp;
      resp.step = r->step;
      resp.shape = r->array.shape();
      resp.values.assign(r->array.values().begin(), r->array.values().end());
      tracer.open(id);
      {
        ScopedSpan s(tracer, "replay.net.getok_encode");
        const wck::Bytes frame = wck::net::encode_frame(
            static_cast<std::uint8_t>(wck::net::MessageType::kGetOk), wck::net::encode(resp));
        s.set_counts(static_cast<double>(frame.size()), 0.0);
      }
      tracer.close();
    }
  }
  return op;
}

/// Runs `body(c, ops)` on kClients threads bound to their client slots
/// and merges their ops into `rec`.
template <typename Body>
void on_clients(Record& rec, Body&& body) {
  std::vector<std::vector<Op>> per(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Tracer::bind_thread(c);
      body(c, per[static_cast<std::size_t>(c)]);
    });
  }
  for (auto& t : threads) t.join();
  for (auto& v : per) rec.ops.insert(rec.ops.end(), v.begin(), v.end());
}

/// Due times for client `c` of an open loop at `rate` ops/s over all
/// clients: evenly spaced per client, phases staggered across clients.
template <typename Issue>
void open_loop(int c, double start, double end, double rate, Issue&& issue) {
  const double period = kClients / rate;
  for (std::uint64_t k = 0;; ++k) {
    const double due = start + (c + 0.5) * period / kClients + static_cast<double>(k) * period;
    if (due >= end) return;
    sleep_until_s(due);
    issue(k, due);
  }
}

// ------------------------------------------------------- svc-fig9-mixed

void run_svc_mixed(const Config& cfg, Record& rec, Failures& failures) {
  Tracer tracer;
  std::map<std::string, int> owner;
  std::vector<TenantState> tenants;
  for (int c = 0; c < kClients; ++c) {
    tenants.push_back(TenantState{std::string("m").append(std::to_string(c)), 0, 0});
    owner[tenants.back().name] = c;
  }
  auto snapshots = [&] {
    std::vector<wck::NdArray<double>> in;
    for (std::size_t s = 0; s < kMixedSnapshots; ++s) in.push_back(paper_field(1, cfg.seed, s));
    return in;
  };
  std::unique_ptr<SvcState> st;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    st.reset();
    for (auto& t : tenants) t.step = 0;
    rec.setup_s.push_back(timed([&] {
      st = std::make_unique<SvcState>(cfg, rep, snapshots(), owner, tracer, failures);
      for (int c = 0; c < kClients; ++c) {
        rec.ops.push_back(do_put(*st->store.clients[static_cast<std::size_t>(c)],
                                 tenants[static_cast<std::size_t>(c)],
                                 static_cast<std::size_t>(c) % kMixedSnapshots, st->oracles,
                                 now_s(), 'w', 0, tracer, failures));
      }
    }));
  }
  const OracleSet& oracles = st->oracles;

  // Client c's k-th op: puts on even k, a get of the newest on odd k;
  // its puts cycle through the snapshots starting at its own offset.
  auto issue = [&](int c, std::uint64_t k, double due, char phase, int pass,
                   std::vector<Op>& ops) {
    TenantState& t = tenants[static_cast<std::size_t>(c)];
    wck::StoreClient& client = *st->store.clients[static_cast<std::size_t>(c)];
    if (k % 2 == 0) {
      ops.push_back(do_put(client, t, (c + t.step) % oracles.size(), oracles, due, phase, pass,
                           tracer, failures));
    } else {
      ops.push_back(do_get(client, t, oracles, due, phase, pass, tracer, failures));
    }
  };

  for (const Pass& p : passes(cfg)) {
    tracer.set_on(p.index == 1);
    PhaseInfo open{'o', p.index, now_s(), 0, kMixedOpRate};
    open.end = open.start + p.seconds * 0.85;
    on_clients(rec, [&](int c, std::vector<Op>& ops) {
      open_loop(c, open.start, open.end, kMixedOpRate,
                [&](std::uint64_t k, double due) { issue(c, k, due, 'o', p.index, ops); });
    });
    rec.phases.push_back(open);

    PhaseInfo closed{'c', p.index, now_s(), 0, 0};
    closed.end = closed.start + p.seconds * 0.15;
    on_clients(rec, [&](int c, std::vector<Op>& ops) {
      for (std::uint64_t k = 0; now_s() < closed.end; ++k) issue(c, k, now_s(), 'c', p.index, ops);
    });
    closed.end = now_s();
    rec.phases.push_back(closed);
  }
  tracer.set_on(false);
  for (const auto& cl : st->store.clients) rec.client_retries += cl->retries();
  rec.field_bytes = static_cast<double>(oracles[0].input.size_bytes());

  if (cfg.trace) {
    Tracer::bind_thread(0);
    tracer.set_on(true);
    rec.replay_diverged = replay_layers(oracles, codec_params(), 2,
                                        small_tile(cfg.seed), oracles[0].input, tracer);
    tracer.set_on(false);
  }
  finish_quality(oracles, rec);
  rec.spans = tracer.take();
}

}  // namespace

void run_workload(const Config& cfg, Record& rec, Failures& failures) {
  if (cfg.workload == "ckpt-fig9") return run_ckpt(cfg, rec, failures);
  if (cfg.workload == "svc-fig9-mixed") return run_svc_mixed(cfg, rec, failures);
  throw std::invalid_argument("unknown workload " + cfg.workload);
}

}  // namespace pb

// The scatter/gather equivalence suite, run over real loopback sockets via
// net::loopback_cluster.
//
// Contract under test: the network coordinator is invisible in the answer —
// for every kernel, shard count, and option set, coordinator::search over a
// serve fleet returns results bit-identical to sharded_database::search
// (and therefore to the flat unsharded scan). Each server scans through the
// in-process engine, so a 1-shard fleet also does exactly the in-process
// work. Failure modes degrade instead of lying: a dead shard, an expired
// or cancelled scan, or a full admission queue shows up in stats.degraded +
// shard_statuses while the surviving shards' contribution stays exact.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/encoder.hpp"
#include "db/database.hpp"
#include "db/shard.hpp"
#include "net/framing.hpp"
#include "net/loopback.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "util/rng.hpp"
#include "workload/query_gen.hpp"
#include "workload/scene_gen.hpp"

namespace bes {
namespace {

// Near-duplicate pairs so top-k boundaries see score ties, same recipe as
// the in-process sharding suite.
image_database sibling_corpus(std::size_t bases, std::uint64_t seed = 23) {
  image_database db;
  rng r(seed);
  scene_params params;
  params.object_count = 8;
  params.symbol_pool = 10;
  for (std::size_t i = 0; i < bases; ++i) {
    const symbolic_image scene = random_scene(params, r, db.symbols());
    db.add("base" + std::to_string(i), scene);
    distortion_params sibling;
    sibling.keep_fraction = 0.8;
    sibling.jitter = 16;
    db.add("sib" + std::to_string(i), distort(scene, sibling, r, db.symbols()));
  }
  return db;
}

symbolic_image distorted_query(const image_database& db, std::uint64_t seed,
                               double keep = 0.6) {
  rng r(seed);
  distortion_params d;
  d.keep_fraction = keep;
  d.jitter = 8;
  alphabet scratch = db.symbols();
  return distort(db.record(static_cast<image_id>(seed % db.size())).image, d,
                 r, scratch);
}

constexpr std::size_t kShardCounts[] = {1, 3, 8};

// The option sets the equivalence matrix sweeps: both scoring kernels
// (weighted rolling and exact bit-parallel LCS), thresholded and pruned
// scans, transform invariance, and unlimited k.
std::vector<std::pair<std::string, query_options>> option_matrix() {
  std::vector<std::pair<std::string, query_options>> matrix;
  {
    query_options o;
    o.top_k = 5;
    matrix.emplace_back("topk", o);
  }
  {
    query_options o;
    o.top_k = 8;
    o.min_score = 0.4;
    o.histogram_pruning = true;
    matrix.emplace_back("thresholded+pruned", o);
  }
  {
    query_options o;
    o.top_k = 5;
    o.similarity.exact_lcs = true;
    matrix.emplace_back("exact-lcs", o);
  }
  {
    query_options o;
    o.top_k = 5;
    o.transform_invariant = true;
    matrix.emplace_back("transform-invariant", o);
  }
  {
    query_options o;
    o.top_k = 0;  // unlimited: the full ranking must survive the merge
    matrix.emplace_back("unlimited", o);
  }
  return matrix;
}

void expect_all_ok(const search_stats& stats, std::size_t shards,
                   const std::string& label) {
  EXPECT_FALSE(stats.degraded) << label;
  ASSERT_EQ(stats.shard_statuses.size(), shards) << label;
  for (const shard_scan_status& status : stats.shard_statuses) {
    EXPECT_EQ(status.state, shard_scan_state::ok)
        << label << " shard " << status.shard;
  }
}

// ----------------------------------------------------------- equivalence

TEST(NetService, LoopbackSearchMatchesInProcessForEveryKernelAndShardCount) {
  const image_database flat = sibling_corpus(16);
  for (const std::size_t shards : kShardCounts) {
    const sharded_database sharded = make_sharded(flat, shards);
    net::loopback_cluster cluster(sharded);
    for (const auto& [label, options] : option_matrix()) {
      for (std::uint64_t seed : {1ull, 5ull, 9ull}) {
        const symbolic_image query = distorted_query(flat, seed);
        const be_string2d strings = encode(query);
        const std::vector<symbol_id> symbols = distinct_symbols(query);
        const std::string tag =
            label + " shards=" + std::to_string(shards) + " seed=" +
            std::to_string(seed);

        const net::remote_result remote =
            cluster.front().search(strings, symbols, options);
        const std::vector<query_result> in_process =
            search(sharded, strings, symbols, options);
        const std::vector<query_result> flat_answer =
            search(flat, query, options);

        EXPECT_EQ(remote.results, in_process) << tag;
        EXPECT_EQ(remote.results, flat_answer) << tag;
        expect_all_ok(remote.stats, shards, tag);
      }
    }
  }
}

TEST(NetService, StatsMatchInProcessAccountingWhenNotPruned) {
  // Without pruning the wire changes nothing about the work done either:
  // every candidate a shard generates is scanned and scored exactly as the
  // in-process fan-out would.
  const image_database flat = sibling_corpus(12);
  const sharded_database sharded = make_sharded(flat, 3);
  net::loopback_cluster cluster(sharded);
  const symbolic_image query = distorted_query(flat, 3);
  query_options options;
  options.top_k = 6;

  const net::remote_result remote =
      cluster.front().search(encode(query), distinct_symbols(query), options);
  search_stats local;
  (void)search(sharded, encode(query), distinct_symbols(query), options,
               &local);
  EXPECT_EQ(remote.stats.scanned, local.scanned);
  EXPECT_EQ(remote.stats.scored, local.scored);
  EXPECT_EQ(remote.stats.pruned, local.pruned);
  EXPECT_EQ(remote.stats.candidates_generated, local.candidates_generated);
  EXPECT_EQ(remote.stats.scanned, remote.stats.scored + remote.stats.pruned);
}

TEST(NetService, BatchMatchesPerQuerySearch) {
  const image_database flat = sibling_corpus(12);
  for (const std::size_t shards : kShardCounts) {
    const sharded_database sharded = make_sharded(flat, shards);
    net::loopback_cluster cluster(sharded);
    query_options options;
    options.top_k = 4;
    options.histogram_pruning = true;

    std::vector<be_string2d> queries;
    std::vector<std::vector<symbol_id>> symbols;
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
      const symbolic_image q = distorted_query(flat, seed);
      queries.push_back(encode(q));
      symbols.push_back(distinct_symbols(q));
    }

    const std::vector<net::remote_result> batch =
        cluster.front().search_batch(queries, symbols, options);
    ASSERT_EQ(batch.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(batch[i].results,
                search(sharded, queries[i], symbols[i], options))
          << "query " << i << " shards=" << shards;
      EXPECT_FALSE(batch[i].stats.degraded);
    }
  }
}

TEST(NetService, FetchSymbolsReturnsTheMasterAlphabet) {
  const image_database flat = sibling_corpus(10);
  const sharded_database sharded = make_sharded(flat, 3);
  net::loopback_cluster cluster(sharded);
  EXPECT_EQ(cluster.front().fetch_symbols(), flat.symbols().names());
}

// ------------------------------------------------------ one engine, wire

TEST(NetService, OneShardFleetDoesExactlyTheInProcessWork) {
  // The server scans through the in-process engine: bounds sorted once over
  // every candidate, then visited in blocks of scan_chunk. A chunk loop
  // that sorted within each id-ordered chunk would score the early chunks
  // before reaching the best match, here in the LAST chunk: the query
  // copies the highest-id record. The wide symbol pool makes histogram
  // bounds discriminate, so the pruning counters tell the orders apart.
  image_database flat;
  {
    rng r(77);
    scene_params params;
    params.object_count = 6;
    params.symbol_pool = 32;
    for (std::size_t i = 0; i < 48; ++i) {
      flat.add("scene" + std::to_string(i),
               random_scene(params, r, flat.symbols()));
    }
  }
  const sharded_database sharded = make_sharded(flat, 1);
  net::server_options tiny_chunks;
  tiny_chunks.scan_chunk = 4;
  net::loopback_cluster cluster(sharded, tiny_chunks);

  query_options options;
  options.top_k = 1;
  options.histogram_pruning = true;
  options.use_index = false;  // every record is a candidate
  const symbolic_image query =
      flat.record(static_cast<image_id>(flat.size() - 1)).image;
  const be_string2d strings = encode(query);
  const std::vector<symbol_id> symbols = distinct_symbols(query);

  const net::remote_result remote =
      cluster.front().search(strings, symbols, options);
  search_stats local;
  const std::vector<query_result> in_process =
      search(flat, strings, symbols, options, &local);

  expect_all_ok(remote.stats, 1, "one shard");
  EXPECT_EQ(remote.results, in_process);
  EXPECT_EQ(remote.stats.scanned, local.scanned);
  EXPECT_EQ(remote.stats.scored, local.scored);
  EXPECT_EQ(remote.stats.pruned, local.pruned);
  EXPECT_EQ(remote.stats.band_rejected, local.band_rejected);
  EXPECT_EQ(remote.stats.candidates_generated, local.candidates_generated);
}

TEST(NetService, ConcurrentRemoteSearchesKeepAnswersExact) {
  // Several threads share one coordinator (and its links), so gathers of
  // different queries interleave on every socket; each answer must still
  // equal the in-process search.
  const image_database flat = sibling_corpus(20);
  const sharded_database sharded = make_sharded(flat, 8);
  net::loopback_cluster cluster(sharded);
  query_options options;
  options.top_k = 3;
  options.histogram_pruning = true;

  std::vector<be_string2d> strings;
  std::vector<std::vector<symbol_id>> symbols;
  std::vector<std::vector<query_result>> expected;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const symbolic_image query = distorted_query(flat, seed, 0.9);
    strings.push_back(encode(query));
    symbols.push_back(distinct_symbols(query));
    expected.push_back(search(sharded, strings.back(), symbols.back(),
                              options));
  }

  std::vector<std::vector<net::remote_result>> got(4);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < got.size(); ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t round = 0; round < 2; ++round) {
        for (std::size_t i = 0; i < strings.size(); ++i) {
          const std::size_t q = (i + c) % strings.size();
          got[c].push_back(cluster.front().search(strings[q], symbols[q],
                                                  options));
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  for (std::size_t c = 0; c < got.size(); ++c) {
    ASSERT_EQ(got[c].size(), 2 * strings.size());
    for (std::size_t k = 0; k < got[c].size(); ++k) {
      const std::size_t q = (k % strings.size() + c) % strings.size();
      EXPECT_EQ(got[c][k].results, expected[q])
          << "client " << c << " query " << q;
      expect_all_ok(got[c][k].stats, 8, "concurrent");
    }
  }
}

// --------------------------------------------------------- degraded modes

TEST(NetService, DeadShardDegradesInsteadOfSinkingTheQuery) {
  const image_database flat = sibling_corpus(16);
  const sharded_database sharded = make_sharded(flat, 3);
  net::loopback_cluster cluster(sharded);
  cluster.stop_server(1);

  query_options options;
  options.top_k = 0;      // unlimited…
  options.use_index = false;  // …over every id: fully checkable below
  const symbolic_image query = distorted_query(flat, 4);
  const net::remote_result remote =
      cluster.front().search(encode(query), distinct_symbols(query), options);

  EXPECT_TRUE(remote.stats.degraded);
  ASSERT_EQ(remote.stats.shard_statuses.size(), 3u);
  EXPECT_EQ(remote.stats.shard_statuses[1].state, shard_scan_state::failed);
  EXPECT_EQ(remote.stats.shard_statuses[0].state, shard_scan_state::ok);
  EXPECT_EQ(remote.stats.shard_statuses[2].state, shard_scan_state::ok);

  // The survivors' contribution is exact: identical to scoring only the
  // candidates owned by shards 0 and 2.
  std::vector<image_id> surviving;
  for (const std::size_t s : {std::size_t{0}, std::size_t{2}}) {
    const auto& ids = sharded.shard_global_ids(s);
    surviving.insert(surviving.end(), ids.begin(), ids.end());
  }
  std::sort(surviving.begin(), surviving.end());
  const std::vector<query_result> expected = search_candidates(
      sharded, encode(query), surviving, options);
  EXPECT_EQ(remote.results, expected);

  // The dead shard stays dead but the cluster stays usable: repeat queries
  // keep answering (degraded) instead of wedging the coordinator.
  const net::remote_result again =
      cluster.front().search(encode(query), distinct_symbols(query), options);
  EXPECT_TRUE(again.stats.degraded);
  EXPECT_EQ(again.results, expected);
}

// One query sent straight to a shard server over a raw session, followed
// by a CANCEL `cancel_after_ms` later when that is non-zero.
net::result_msg raw_query(std::uint16_t port, const net::query_msg& qm,
                          unsigned cancel_after_ms = 0) {
  net::tcp_socket sock = net::tcp_socket::connect("127.0.0.1", port, 2000);
  net::write_frame(sock, net::encode(net::hello_msg{}));
  const auto hello = net::read_frame(sock, net::deadline_in(5000));
  if (!hello) throw net::net_error("server hung up during the handshake");
  (void)net::decode_hello_ok(*hello);
  net::write_frame(sock, net::encode(qm));
  if (cancel_after_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(cancel_after_ms));
    net::write_frame(sock, net::encode(net::cancel_msg{qm.query_id}));
  }
  const auto reply = net::read_frame(sock, net::deadline_in(10000));
  if (!reply) throw net::net_error("server hung up before the result");
  return net::decode_result(*reply);
}

// A scan stopped mid-way must still be honest: its accounting covers only
// what it visited (scanned == scored + pruned, fewer than every candidate),
// and every result it returns carries the exact in-process score.
void expect_partial_but_exact(const net::result_msg& got,
                              const std::map<image_id, double>& scores,
                              std::size_t candidates,
                              const std::string& label) {
  EXPECT_EQ(got.status, net::query_status::expired) << label;
  EXPECT_EQ(got.stats.scanned, got.stats.scored + got.stats.pruned) << label;
  EXPECT_LT(got.stats.scanned, candidates) << label;
  for (const query_result& r : got.results) {
    EXPECT_EQ(r.score, scores.at(r.id)) << label << " id " << r.id;
  }
}

TEST(NetService, SlowShardsExpireAtTheDeadlineAndDegrade) {
  const image_database flat = sibling_corpus(16);
  const sharded_database sharded = make_sharded(flat, 3);
  const symbolic_image query = distorted_query(flat, 6);
  const be_string2d strings = encode(query);
  const std::vector<symbol_id> symbols = distinct_symbols(query);

  // Every record's exact score, from an exhaustive in-process scan.
  query_options everything;
  everything.top_k = 0;
  everything.use_index = false;
  std::map<image_id, double> scores;
  for (const query_result& r : search(flat, strings, symbols, everything)) {
    scores[r.id] = r.score;
  }
  std::vector<image_id> identity(flat.size());
  for (std::size_t i = 0; i < identity.size(); ++i) {
    identity[i] = static_cast<image_id>(i);
  }

  for (const bool pruned : {true, false}) {
    for (const unsigned threads : {1u, 2u}) {
      const std::string label =
          std::string(pruned ? "pruned" : "exhaustive") +
          " threads=" + std::to_string(threads);
      query_options options;
      options.top_k = 5;
      options.use_index = false;
      options.histogram_pruning = pruned;

      net::server_options slow;
      slow.scan_threads = threads;
      slow.scan_chunk = 1;      // many blocks, each delayed…
      slow.scan_delay_ms = 20;  // …so the budget dies mid-scan, not before it

      // Through the coordinator: the answer degrades, shard by shard.
      {
        net::coordinator_options tight;
        tight.default_deadline_ms = 100;
        net::loopback_cluster cluster(sharded, slow, tight);
        const net::remote_result remote =
            cluster.front().search(strings, symbols, options);
        EXPECT_TRUE(remote.stats.degraded) << label;
        ASSERT_EQ(remote.stats.shard_statuses.size(), 3u) << label;
        for (const shard_scan_status& status : remote.stats.shard_statuses) {
          EXPECT_TRUE(status.state == shard_scan_state::expired ||
                      status.state == shard_scan_state::timed_out)
              << label << " shard " << status.shard << " ended "
              << to_string(status.state);
        }
        EXPECT_EQ(remote.stats.scanned,
                  remote.stats.scored + remote.stats.pruned)
            << label;
        for (const query_result& r : remote.results) {
          EXPECT_EQ(r.score, scores.at(r.id)) << label << " id " << r.id;
        }
      }

      // Straight at one server, so the expired answer itself is checked:
      // a deadline that passes after the first block or two…
      net::shard_server server(flat, identity, 0, slow);
      net::query_msg qm;
      qm.query_id = 1;
      qm.options = options;
      qm.query = strings;
      qm.query_symbols = symbols;
      qm.deadline_ms = 30;
      expect_partial_but_exact(raw_query(server.port(), qm), scores,
                               flat.size(), label + " deadline");
      // …and a CANCEL that lands mid-scan with no deadline at all.
      qm.query_id = 2;
      qm.deadline_ms = 0;
      expect_partial_but_exact(raw_query(server.port(), qm, 60), scores,
                               flat.size(), label + " cancel");
    }
  }

  // The fleet recovers once the budget is sane again: the same query with a
  // roomy deadline is exact and un-degraded.
  query_options options;
  options.top_k = 5;
  net::coordinator_options roomy;
  net::loopback_cluster healthy(sharded, {}, roomy);
  const net::remote_result ok = healthy.front().search(strings, symbols,
                                                       options);
  EXPECT_FALSE(ok.stats.degraded);
  EXPECT_EQ(ok.results, search(sharded, strings, symbols, options));
}

TEST(NetService, FullAdmissionQueueRejectsInsteadOfQueueingForever) {
  const image_database flat = sibling_corpus(10);
  const sharded_database sharded = make_sharded(flat, 3);
  net::server_options no_room;
  no_room.max_queue = 0;
  net::loopback_cluster cluster(sharded, no_room);

  query_options options;
  options.top_k = 5;
  const symbolic_image query = distorted_query(flat, 1);
  const net::remote_result remote =
      cluster.front().search(encode(query), distinct_symbols(query), options);

  EXPECT_TRUE(remote.stats.degraded);
  EXPECT_TRUE(remote.results.empty());
  ASSERT_EQ(remote.stats.shard_statuses.size(), 3u);
  for (const shard_scan_status& status : remote.stats.shard_statuses) {
    EXPECT_EQ(status.state, shard_scan_state::rejected)
        << "shard " << status.shard;
  }
}

TEST(NetService, CoordinatorWithNoShardsThrowsInvalidArgument) {
  net::coordinator coord({});
  query_options options;
  EXPECT_THROW((void)coord.search(be_string2d{}, {}, options),
               std::invalid_argument);
}

}  // namespace
}  // namespace bes

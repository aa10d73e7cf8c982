// E10 — the network query service: scatter/gather over loopback sockets vs
// the in-process sharded scan it wraps.
//
// The coordinator's contract is "invisible in the answer"; this bench pins
// down what the wire costs. Two measurements per row:
//   - in-process: sharded_database::search, the floor the service sits on;
//   - loopback: coordinator::search over a serve fleet on 127.0.0.1, i.e.
//     framing + CRC + scatter + gather on top of the same scan.
// Each server scans its shard through the in-process engine, so the LCS-run
// columns agree exactly at 1 shard; past that each remote shard defends only
// its own top-k, where the in-process fan-out shares one.
#include "bench_common.hpp"

#include "core/encoder.hpp"
#include "db/query.hpp"
#include "db/shard.hpp"
#include "net/loopback.hpp"
#include "workload/query_gen.hpp"

namespace bes {
namespace {

using benchsupport::print_header;
using benchsupport::time_per_call;

image_database build_db(std::size_t images) {
  image_database db;
  rng r(20010402);
  scene_params params;
  params.object_count = 8;
  params.symbol_pool = 40;
  for (std::size_t i = 0; i < images; ++i) {
    db.add("scene" + std::to_string(i), random_scene(params, r, db.symbols()));
  }
  return db;
}

symbolic_image make_query(const image_database& db) {
  rng r(5);
  alphabet scratch = db.symbols();
  distortion_params d;
  d.keep_fraction = 0.6;
  return distort(db.record(0).image, d, r, scratch);
}

void print_scatter_table() {
  print_header("E10a: loopback scatter/gather vs in-process sharded scan",
               "the wire adds fixed per-query overhead, not a scan slowdown; "
               "1-shard loopback LCS runs == in-proc (the server scans "
               "through the same engine)");
  text_table table({"images", "shards", "in-proc (ms)", "loopback (ms)",
                    "LCS in-proc", "LCS loopback"});
  for (std::size_t images : benchsupport::smoke_sweep({400u, 1600u}, 100u)) {
    const image_database db = build_db(images);
    const symbolic_image query = make_query(db);
    const be_string2d strings = encode(query);
    const std::vector<symbol_id> symbols = distinct_symbols(query);

    query_options options;
    options.use_index = false;
    options.histogram_pruning = true;
    options.top_k = 10;

    for (std::size_t shards : {1u, 4u, 8u}) {
      const sharded_database sharded = make_sharded(db, shards);

      search_stats local_stats;
      const double t_local = 1e3 * time_per_call([&] {
        benchmark::DoNotOptimize(
            search(sharded, strings, symbols, options, &local_stats));
      });

      net::loopback_cluster cluster(sharded);
      net::remote_result remote;
      const double t_remote = 1e3 * time_per_call([&] {
        remote = cluster.front().search(strings, symbols, options);
        benchmark::DoNotOptimize(remote);
      });

      table.add_row({std::to_string(images), std::to_string(shards),
                     fmt_double(t_local, 2), fmt_double(t_remote, 2),
                     std::to_string(local_stats.scored),
                     std::to_string(remote.stats.scored)});
    }
  }
  std::fputs(table.str().c_str(), stdout);
}

void print_batch_table() {
  print_header("E10b: concurrent scatters over one fleet",
               "there is no batch frame: coordinator::search_batch runs up "
               "to max_inflight scatters at once, so round trips overlap "
               "instead of queueing one after another");
  text_table table({"images", "shards", "batch", "loop (ms/q)",
                    "batch (ms/q)"});
  const std::size_t images = benchsupport::smoke_cap<std::size_t>(800, 100);
  const image_database db = build_db(images);
  const sharded_database sharded = make_sharded(db, 4);

  rng r(7);
  alphabet scratch = db.symbols();
  distortion_params d;
  d.keep_fraction = 0.7;
  query_options options;
  options.use_index = false;
  options.histogram_pruning = true;
  options.top_k = 10;

  net::loopback_cluster cluster(sharded);
  for (std::size_t batch : benchsupport::smoke_sweep({4u, 16u}, 4u)) {
    std::vector<be_string2d> strings;
    std::vector<std::vector<symbol_id>> symbols;
    for (std::size_t i = 0; i < batch; ++i) {
      const symbolic_image q =
          distort(db.record(static_cast<image_id>(i % db.size())).image, d, r,
                  scratch);
      strings.push_back(encode(q));
      symbols.push_back(distinct_symbols(q));
    }

    const double t_loop = time_per_call([&] {
      for (std::size_t i = 0; i < batch; ++i) {
        benchmark::DoNotOptimize(
            cluster.front().search(strings[i], symbols[i], options));
      }
    });
    const double t_batch = time_per_call([&] {
      benchmark::DoNotOptimize(
          cluster.front().search_batch(strings, symbols, options));
    });
    const auto per_query = [&](double total_s) {
      return fmt_double(1e3 * total_s / static_cast<double>(batch), 2);
    };
    table.add_row({std::to_string(images), "4", std::to_string(batch),
                   per_query(t_loop), per_query(t_batch)});
  }
  std::fputs(table.str().c_str(), stdout);
}

void BM_LoopbackSearch(benchmark::State& state) {
  const image_database db = build_db(400);
  const sharded_database sharded =
      make_sharded(db, static_cast<std::size_t>(state.range(0)));
  const symbolic_image query = make_query(db);
  const be_string2d strings = encode(query);
  const std::vector<symbol_id> symbols = distinct_symbols(query);
  query_options options;
  options.use_index = false;
  options.histogram_pruning = true;
  options.top_k = 10;
  net::loopback_cluster cluster(sharded);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster.front().search(strings, symbols, options));
  }
}
BENCHMARK(BM_LoopbackSearch)->Arg(1)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bes

int main(int argc, char** argv) {
  bes::print_scatter_table();
  bes::print_batch_table();
  return bes::benchsupport::run_registered(argc, argv);
}

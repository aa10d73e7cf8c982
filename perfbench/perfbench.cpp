// The repository benchmark's measuring program (see perfbench/README.md).
//
//   perfbench gen --workload W --seed N --dir D
//       Generates workload W's corpus and request stream from seed N and
//       writes them under D: the corpus (BSEG1 segment or SCRP1 directory),
//       pool.bseg (query pictures; each name carries the query's graded
//       judgments), adds.bseg (pictures to ingest) and requests.txt.
//
//   perfbench run --workload W --seed N --dir D --seconds S --trace 0|1
//                 --out F
//       Opens the corpus (timed as set-up, several times), replays the
//       request stream through the public APIs for S seconds of measured
//       request time, checks answers outside every timed region, and writes
//       raw records to F as JSON lines: one "setup" record, one "req" record
//       per request, trace spans, and "counters"/"end" records. run.py turns
//       those into the reported metrics.
//
// One client thread, closed loop, top-10, threads = 1 per query throughout.
// With --trace 1 the stream runs twice on identical state: once untraced
// (the baseline for the tracing overhead) and once split into the layers'
// public calls, each wrapped in a span.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/encoder.hpp"
#include "db/access_path.hpp"
#include "db/database.hpp"
#include "db/group_commit.hpp"
#include "db/hybrid_index.hpp"
#include "db/planner.hpp"
#include "db/query.hpp"
#include "db/result_cache.hpp"
#include "db/segment.hpp"
#include "db/shard.hpp"
#include "db/shard_storage.hpp"
#include "db/spatial_index.hpp"
#include "eval/corpus.hpp"
#include "lcs/kernel.hpp"
#include "lcs/similarity.hpp"
#include "lcs/token_histogram.hpp"
#include "net/loopback.hpp"
#include "util/rng.hpp"
#include "workload/scene_gen.hpp"
#include "workload/zipf.hpp"

namespace fs = std::filesystem;
using namespace bes;

namespace {

using clock_type = std::chrono::steady_clock;

// ------------------------------------------------------------ parameters

constexpr std::size_t top_k = 10;
constexpr std::size_t symbol_pool = 256;
constexpr std::size_t objects_per_scene = 8;
constexpr int domain = 256;
constexpr std::size_t shard_count = 4;
// Every eighth query of the read-only workloads is transform-invariant (best
// of the 8 dihedral variants).
constexpr std::size_t ti_every = 8;
// live-zipf, per 16 requests: one add, one transform-invariant query, and
// (one request in 64) a durable delete. The transform-invariant queries
// re-ask one of the 64 hottest pool queries, uniformly: over a zipf stream
// they would be dominated by their few hottest members, and their cold
// tail would miss at 8x the cost of an identity miss.
constexpr std::size_t live_period = 16;
constexpr std::size_t delete_every = 64;
constexpr std::size_t live_ti_queries = 64;
constexpr std::size_t zipf_pool = 8192;
constexpr double zipf_skew = 1.2;
constexpr std::size_t cache_capacity = 1024;  // besdb connect --cache
// The read-only workloads end with this many adds, then durable deletes,
// after their timed queries.
constexpr std::size_t probe_adds = 256;
constexpr std::size_t probe_deletes = 128;
// Worker threads of the untimed reference searches (results are
// thread-count-invariant, so this only shortens the run).
constexpr unsigned check_threads = 4;
// LCS pairs timed per probed request.
constexpr std::size_t lcs_probe_pairs = 32;
constexpr std::size_t lcs_probe_ti_pairs = 8;

// Derived-seed stream tags (any fixed values disjoint from each other).
constexpr std::uint64_t stream_order = 101;
constexpr std::uint64_t stream_pool = 102;
constexpr std::uint64_t stream_adds = 103;
constexpr std::uint64_t stream_deletes = 104;
constexpr std::uint64_t stream_check = 105;
constexpr std::uint64_t stream_ti = 106;

struct workload_shape {
  std::size_t setup_repeats;     // timed set-ups per run (median reported)
  std::size_t base_scenes;       // families of eval_family_size images
  std::size_t queries_per_base;  // eval queries per family
  std::size_t stream_length;     // requests generated
  std::size_t exact_prefix;      // requests always run, checked, counted
  std::size_t check_every;       // 1 in N prefix queries is checked
  bool remote;
  bool live;
};

workload_shape shape_of(const std::string& workload) {
  if (workload == "query-1e5") {
    return {3, 20000, 2, 8192, 192, 2, false, false};
  }
  if (workload == "remote-1e5") {
    return {3, 20000, 2, 8192, 192, 2, true, false};
  }
  if (workload == "live-zipf") {
    return {9, 4000, 3, 65536, 1024, 4, false, true};
  }
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

eval_corpus_params corpus_params(const workload_shape& shape,
                                 std::uint64_t seed) {
  eval_corpus_params p;
  p.seed = seed;
  p.base_scenes = shape.base_scenes;
  p.objects = objects_per_scene;
  p.domain = domain;
  p.symbol_pool = symbol_pool;
  p.queries_per_base = shape.queries_per_base;
  return p;
}

// ------------------------------------------------------------- requests

enum class request_kind : char { query = 'q', add = 'a', remove = 'd' };

struct request {
  request_kind kind = request_kind::query;
  std::size_t arg = 0;  // pool slot, add index, or image id to delete
  bool ti = false;      // transform-invariant query
};

struct request_plan {
  std::vector<request> stream;
  std::vector<request> probe;  // the write probe of read-only workloads
};

void write_requests(const fs::path& path, const request_plan& plan) {
  std::ofstream out(path);
  auto put = [&](const request& r) {
    out << static_cast<char>(r.kind) << ' ' << r.arg << ' ' << (r.ti ? 1 : 0)
        << '\n';
  };
  for (const request& r : plan.stream) put(r);
  out << "probe\n";
  for (const request& r : plan.probe) put(r);
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

request_plan read_requests(const fs::path& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  request_plan plan;
  std::vector<request>* into = &plan.stream;
  std::string line;
  while (std::getline(in, line)) {
    if (line == "probe") {
      into = &plan.probe;
      continue;
    }
    std::istringstream fields(line);
    char kind = 0;
    request r;
    int ti = 0;
    if (!(fields >> kind >> r.arg >> ti)) {
      throw std::runtime_error("malformed request line '" + line + "'");
    }
    r.kind = static_cast<request_kind>(kind);
    r.ti = ti != 0;
    into->push_back(r);
  }
  return plan;
}

// A query picture's judgments travel in its segment record name:
// "id:grade,id:grade,...".
std::string judgments_name(const eval_query& q) {
  std::string name;
  for (const graded_doc& d : q.relevance) {
    if (!name.empty()) name += ',';
    name += std::to_string(d.id) + ':' + std::to_string(d.grade);
  }
  return name;
}

std::vector<graded_doc> parse_judgments(const std::string& name) {
  std::vector<graded_doc> out;
  std::istringstream in(name);
  std::string item;
  while (std::getline(in, item, ',')) {
    const auto colon = item.find(':');
    out.push_back(graded_doc{
        static_cast<std::uint32_t>(std::stoul(item.substr(0, colon))),
        std::stoi(item.substr(colon + 1))});
  }
  return out;
}

// Saves pictures as a segment whose alphabet is `names`, so symbol ids read
// back identical to the corpus's.
void save_pictures(const alphabet& names,
                   const std::vector<std::pair<std::string, symbolic_image>>&
                       pictures,
                   const fs::path& path) {
  image_database db;
  for (const std::string& n : names.names()) db.symbols().intern(n);
  for (const auto& [name, image] : pictures) db.add(name, image);
  save_segment(db, path);
}

// `count` distinct values of [0, n), in a seeded order.
std::vector<std::size_t> seeded_sample(std::size_t n, std::size_t count,
                                       std::uint64_t seed) {
  std::vector<std::size_t> all(n);
  std::iota(all.begin(), all.end(), std::size_t{0});
  rng r(seed);
  for (std::size_t i = 0; i < count && i + 1 < n; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(r.next_u64() % (n - i));
    std::swap(all[i], all[j]);
  }
  all.resize(std::min(count, n));
  return all;
}

int run_gen(const std::string& workload, std::uint64_t seed,
            const fs::path& dir) {
  const workload_shape shape = shape_of(workload);
  fs::create_directories(dir);
  const eval_corpus corpus =
      build_eval_corpus(corpus_params(shape, seed), /*threads=*/4);
  const alphabet& names = corpus.db.symbols();
  const std::size_t images = corpus.db.size();

  if (shape.remote) {
    save_sharded(corpus.db, dir / "corpus", shard_count);
  } else {
    save_segment(corpus.db, dir / "corpus.bseg");
  }

  // The query pool: every eval query (query-1e5, remote-1e5), or a seeded
  // choice of zipf_pool of them, hottest first (live-zipf).
  std::vector<std::size_t> pool_queries;
  if (shape.live) {
    pool_queries = seeded_sample(corpus.queries.size(), zipf_pool,
                                 derive_seed(seed, stream_pool));
  } else {
    pool_queries.resize(corpus.queries.size());
    std::iota(pool_queries.begin(), pool_queries.end(), std::size_t{0});
  }
  std::vector<std::pair<std::string, symbolic_image>> pool;
  for (std::size_t q : pool_queries) {
    pool.emplace_back(judgments_name(corpus.queries[q]),
                      corpus.queries[q].image);
  }
  save_pictures(names, pool, dir / "pool.bseg");

  request_plan plan;
  std::size_t adds = 0;
  std::vector<std::size_t> deletes;
  if (shape.live) {
    zipf_sampler zipf(zipf_pool, zipf_skew, derive_seed(seed, stream_order));
    rng ti_pick(derive_seed(seed, stream_ti));
    const std::size_t delete_count = shape.stream_length / delete_every;
    deletes = seeded_sample(images, delete_count,
                            derive_seed(seed, stream_deletes));
    std::size_t next_delete = 0;
    for (std::size_t i = 0; i < shape.stream_length; ++i) {
      if (i % delete_every == delete_every - 1) {
        plan.stream.push_back({request_kind::remove, deletes[next_delete++]});
      } else if (i % live_period == live_period - 1) {
        plan.stream.push_back({request_kind::add, adds++});
      } else if (i % live_period == live_period / 2 - 1) {
        plan.stream.push_back(
            {request_kind::query,
             static_cast<std::size_t>(ti_pick.next_u64() % live_ti_queries),
             true});
      } else {
        plan.stream.push_back({request_kind::query, zipf.next(), false});
      }
    }
  } else {
    rng order(derive_seed(seed, stream_order));
    for (std::size_t i = 0; i < shape.stream_length; ++i) {
      const std::size_t slot =
          static_cast<std::size_t>(order.next_u64() % pool.size());
      plan.stream.push_back(
          {request_kind::query, slot, i % ti_every == ti_every - 1});
    }
    // Deletes come from shard 0 on the sharded corpus (its segment takes
    // the durable tombstones); remote ids are global, flat ids are ordinals.
    std::vector<std::size_t> candidates;
    if (shape.remote) {
      const shard_ring ring(shard_count, default_ring_replicas);
      for (std::size_t id = 0; id < images; ++id) {
        if (ring.shard_of(static_cast<image_id>(id)) == 0) {
          candidates.push_back(id);
        }
      }
    } else {
      candidates.resize(images);
      std::iota(candidates.begin(), candidates.end(), std::size_t{0});
    }
    for (std::size_t k : seeded_sample(candidates.size(), probe_deletes,
                                       derive_seed(seed, stream_deletes))) {
      deletes.push_back(candidates[k]);
    }
    // Adds back to back, then deletes: an add right after a delete's
    // group-commit wait would run on an idle, cooled-down core.
    for (std::size_t i = 0; i < probe_adds; ++i) {
      plan.probe.push_back({request_kind::add, adds++});
    }
    for (std::size_t id : deletes) {
      plan.probe.push_back({request_kind::remove, id});
    }
  }
  write_requests(dir / "requests.txt", plan);

  // Pictures to ingest: fresh scenes of the corpus's own shape.
  scene_params shape_params;
  shape_params.width = domain;
  shape_params.height = domain;
  shape_params.object_count = objects_per_scene;
  shape_params.max_extent = domain / 4;
  shape_params.symbol_pool = symbol_pool;
  alphabet names_copy = names;
  std::vector<std::pair<std::string, symbolic_image>> add_pictures;
  for (std::size_t j = 0; j < adds; ++j) {
    rng r(derive_seed(derive_seed(seed, stream_adds), j));
    add_pictures.emplace_back("add" + std::to_string(j),
                              random_scene(shape_params, r, names_copy));
  }
  if (names_copy.size() != names.size()) {
    throw std::logic_error("add pictures grew the alphabet");
  }
  save_pictures(names, add_pictures, dir / "adds.bseg");
  return 0;
}

// ------------------------------------------------------------- tracing

std::int64_t ns_since(clock_type::time_point origin, clock_type::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
      .count();
}

struct span_record {
  const char* name;
  std::int64_t request;
  std::int32_t parent;  // index into the span list, -1 for a request root
  std::int64_t begin_ns;
  std::int64_t end_ns;
};

// Spans kept in memory and written out when the run ends.
class tracer {
 public:
  explicit tracer(clock_type::time_point origin) : origin_(origin) {}

  std::int32_t open(const char* name, std::int64_t request,
                    std::int32_t parent) {
    spans_.push_back({name, request, parent, now(), 0});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void close(std::int32_t span) { spans_[span].end_ns = now(); }

  [[nodiscard]] const std::vector<span_record>& spans() const {
    return spans_;
  }

 private:
  [[nodiscard]] std::int64_t now() const {
    return ns_since(origin_, clock_type::now());
  }

  clock_type::time_point origin_;
  std::vector<span_record> spans_;
};

// Opens a span for the enclosing scope; a no-op without a tracer.
class scoped_span {
 public:
  scoped_span(tracer* t, const char* name, std::int64_t request,
              std::int32_t parent)
      : tracer_(t), id_(t != nullptr ? t->open(name, request, parent) : -1) {}
  ~scoped_span() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

  [[nodiscard]] std::int32_t id() const noexcept { return id_; }

 private:
  tracer* tracer_;
  std::int32_t id_;
};

// ------------------------------------------------------------ recording

// One request's outcome. Counters are copied from the layers' own stats
// structs; probe timings are the benchmark's own calls made after the
// request returned, never inside its latency.
struct request_record {
  std::size_t index = 0;
  std::size_t arg = 0;  // the request's pool slot, add index or image id
  request_kind kind = request_kind::query;
  bool ti = false;
  bool probe = false;  // part of a read-only workload's write probe
  bool failed = false;
  bool checked = false;
  std::int64_t latency_ns = 0;
  search_stats stats;
  std::size_t nodes_visited = 0;
  char cache_outcome = '-';  // h(it), d(elta refresh), m(iss)
  std::string grades;        // grades of the returned ids, rank order
  std::string ideal;         // the query's judgment grades
  std::int64_t lcs_ns = 0, lcs_pairs = 0;
  std::int64_t bounded_ns = 0, bounded_pairs = 0;
  std::int64_t ti_pair_ns = 0, ti_pairs = 0;
  std::int64_t key_ns = -1;
  std::int64_t candidates_ns = -1;
  std::int64_t fanout_ns = -1;
  std::size_t fanout_scored = 0;
};

std::string plan_name(const search_stats& s) {
  return s.plans.empty() ? std::string("-")
                         : std::string(to_string(s.plans.front().path));
}

void write_record(std::FILE* out, int pass, const request_record& r) {
  const search_stats& s = r.stats;
  std::fprintf(
      out,
      "{\"t\":\"req\",\"pass\":%d,\"i\":%zu,\"arg\":%zu,\"k\":\"%c\","
      "\"ti\":%d,\"probe\":%d,\"fail\":%d,\"chk\":%d,\"ns\":%lld,"
      "\"scanned\":%zu,\"scored\":%zu,\"pruned\":%zu,\"band\":%zu,"
      "\"gen\":%zu,\"nodes\":%zu,"
      "\"plan\":\"%s\",\"est\":%zu,\"act\":%zu,\"cache\":\"%c\","
      "\"rescored\":%zu,\"degraded\":%d,\"grades\":\"%s\",\"ideal\":\"%s\","
      "\"lcs_ns\":%lld,\"lcs_n\":%lld,\"bnd_ns\":%lld,\"bnd_n\":%lld,"
      "\"tip_ns\":%lld,\"tip_n\":%lld,\"key_ns\":%lld,\"cand_ns\":%lld,"
      "\"fan_ns\":%lld,\"fan_scored\":%zu}\n",
      pass, r.index, r.arg, static_cast<char>(r.kind), r.ti ? 1 : 0,
      r.probe ? 1 : 0, r.failed ? 1 : 0, r.checked ? 1 : 0,
      static_cast<long long>(r.latency_ns), s.scanned, s.scored, s.pruned,
      s.band_rejected, s.candidates_generated, r.nodes_visited,
      plan_name(s).c_str(),
      s.plans.empty() ? std::size_t{0} : s.plans.front().estimated_candidates,
      s.plans.empty() ? std::size_t{0} : s.plans.front().actual_candidates,
      r.cache_outcome, s.cache_delta_rescored, s.degraded ? 1 : 0,
      r.grades.c_str(), r.ideal.c_str(), static_cast<long long>(r.lcs_ns),
      static_cast<long long>(r.lcs_pairs), static_cast<long long>(r.bounded_ns),
      static_cast<long long>(r.bounded_pairs),
      static_cast<long long>(r.ti_pair_ns), static_cast<long long>(r.ti_pairs),
      static_cast<long long>(r.key_ns), static_cast<long long>(r.candidates_ns),
      static_cast<long long>(r.fanout_ns), r.fanout_scored);
}

// ------------------------------------------------------------ helpers

template <typename F>
std::int64_t time_ns(F&& f) {
  const auto t0 = clock_type::now();
  f();
  return ns_since(t0, clock_type::now());
}

double seconds_of(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

std::uint64_t peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoull(line.substr(6));
  }
  return 0;
}

std::uint64_t corpus_bytes(const fs::path& corpus) {
  if (!fs::is_directory(corpus)) return fs::file_size(corpus);
  std::uint64_t total = 0;
  for (const auto& entry : fs::directory_iterator(corpus)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

struct query_picture {
  symbolic_image image;
  std::vector<graded_doc> judgments;
};

std::vector<query_picture> load_pool(const fs::path& path) {
  const image_database db = load_segment(path);
  std::vector<query_picture> out;
  out.reserve(db.size());
  for (std::size_t i = 0; i < db.size(); ++i) {
    const db_record& rec = db.record(static_cast<image_id>(i));
    out.push_back({rec.image, parse_judgments(rec.name)});
  }
  return out;
}

std::vector<symbolic_image> load_adds(const fs::path& path) {
  const image_database db = load_segment(path);
  std::vector<symbolic_image> out;
  out.reserve(db.size());
  for (std::size_t i = 0; i < db.size(); ++i) {
    out.push_back(db.record(static_cast<image_id>(i)).image);
  }
  return out;
}

std::string grades_of(const std::vector<query_result>& results,
                      std::span<const graded_doc> judgments) {
  std::string out;
  for (const query_result& r : results) {
    out += static_cast<char>('0' + grade_of(r.id, judgments));
  }
  return out;
}

std::string ideal_of(std::span<const graded_doc> judgments) {
  std::string out;
  for (const graded_doc& d : judgments) {
    out += static_cast<char>('0' + d.grade);
  }
  return out;
}

query_options query_options_for(bool ti, bool pruning) {
  query_options o;
  o.top_k = top_k;
  o.threads = 1;
  o.transform_invariant = ti;
  o.histogram_pruning = pruning;
  return o;
}

// The reference an answer is checked against: the same options, without
// pruning, on check_threads workers.
query_options reference_options(query_options o) {
  o.histogram_pruning = false;
  o.threads = check_threads;
  return o;
}

// Times the active LCS kernel on pairs of this query against candidate
// records: similarity, similarity_bounded at the answer's k-th score, and
// best_transform_similarity for transform-invariant queries.
template <typename RecordOf>
void lcs_probe(request_record& rec, const be_string2d& strings, bool ti,
               std::span<const image_id> candidates,
               const std::vector<query_result>& answer,
               const similarity_options& sim, RecordOf&& record_of) {
  lcs_context ctx;
  const std::size_t pairs = std::min(lcs_probe_pairs, candidates.size());
  if (ti) {
    const query_transforms transforms = precompute_transforms(strings);
    const std::size_t ti_pairs = std::min(lcs_probe_ti_pairs, pairs);
    rec.ti_pair_ns = time_ns([&] {
      for (std::size_t k = 0; k < ti_pairs; ++k) {
        (void)best_transform_similarity(
            transforms, record_of(candidates[k]).strings, sim, ctx);
      }
    });
    rec.ti_pairs = static_cast<std::int64_t>(ti_pairs);
  } else {
    rec.lcs_ns = time_ns([&] {
      for (std::size_t k = 0; k < pairs; ++k) {
        (void)similarity(strings, record_of(candidates[k]).strings, sim, ctx);
      }
    });
    rec.lcs_pairs = static_cast<std::int64_t>(pairs);
    const double threshold =
        answer.size() == top_k ? answer.back().score : 0.0;
    rec.bounded_ns = time_ns([&] {
      for (std::size_t k = 0; k < pairs; ++k) {
        (void)similarity_bounded(strings, record_of(candidates[k]).strings,
                                 sim, threshold, ctx);
      }
    });
    rec.bounded_pairs = static_cast<std::int64_t>(pairs);
  }
}

// ------------------------------------------------------------ workloads

struct run_context {
  std::string workload;
  workload_shape shape;
  fs::path dir;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::vector<query_picture> pool;
  std::vector<symbolic_image> adds;
  request_plan plan;
  std::FILE* out = nullptr;
  clock_type::time_point origin = clock_type::now();
};

// Whether prefix request `i` gets its answer checked (a fixed seeded
// sample when check_every > 1).
bool sampled_for_check(const run_context& rc, std::size_t i) {
  return i < rc.shape.exact_prefix &&
         derive_seed(derive_seed(rc.seed, stream_check), i) %
                 rc.shape.check_every ==
             0;
}

void write_setup(const run_context& rc, std::uint64_t bytes,
                 std::size_t images, const std::vector<double>& total,
                 const std::vector<double>& load,
                 const std::vector<double>& build,
                 const std::vector<double>& start) {
  auto list = [](const std::vector<double>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%s%.9f", i ? "," : "", v[i]);
      s += buf;
    }
    return s + "]";
  };
  std::fprintf(rc.out,
               "{\"t\":\"setup\",\"prefix\":%zu,\"bytes\":%llu,\"images\":%zu,"
               "\"total_s\":%s,\"load_s\":%s,\"build_s\":%s,\"start_s\":%s}\n",
               rc.shape.exact_prefix, static_cast<unsigned long long>(bytes),
               images,
               list(total).c_str(), list(load).c_str(), list(build).c_str(),
               list(start).c_str());
}

void write_spans(const run_context& rc, int pass, const tracer& t) {
  for (std::size_t s = 0; s < t.spans().size(); ++s) {
    const span_record& sp = t.spans()[s];
    std::fprintf(rc.out,
                 "{\"t\":\"span\",\"pass\":%d,\"id\":%zu,\"name\":\"%s\","
                 "\"req\":%lld,\"parent\":%d,\"b\":%lld,\"e\":%lld}\n",
                 pass, s, sp.name, static_cast<long long>(sp.request),
                 sp.parent, static_cast<long long>(sp.begin_ns),
                 static_cast<long long>(sp.end_ns));
  }
}

// The exact counters at the end of the exact prefix: everything here is a
// pure function of the seed.
void write_counters(const run_context& rc, int pass, std::uint64_t bytes,
                    std::size_t live_images, const group_commit_stats& gc,
                    const result_cache_stats& cache) {
  std::fprintf(
      rc.out,
      "{\"t\":\"counters\",\"pass\":%d,\"disk_bytes\":%llu,\"live\":%zu,"
      "\"gc_deletes\":%llu,\"gc_records\":%llu,\"gc_syncs\":%llu,"
      "\"cache_hits\":%llu,\"cache_misses\":%llu,\"cache_deltas\":%llu,"
      "\"cache_rescored\":%llu,\"cache_evictions\":%llu}\n",
      pass, static_cast<unsigned long long>(bytes), live_images,
      static_cast<unsigned long long>(gc.deletes),
      static_cast<unsigned long long>(gc.records),
      static_cast<unsigned long long>(gc.syncs),
      static_cast<unsigned long long>(cache.hits),
      static_cast<unsigned long long>(cache.misses),
      static_cast<unsigned long long>(cache.delta_refreshes),
      static_cast<unsigned long long>(cache.delta_rescored),
      static_cast<unsigned long long>(cache.evictions));
}

// Drives one pass of the request stream: every prefix request, then more
// until `seconds` of measured request time. Returns the requests run.
template <typename RunOne>
std::size_t drive(const run_context& rc, int pass, std::size_t limit,
                  RunOne&& run_one, const std::function<void()>& at_prefix) {
  std::int64_t measured = 0;
  const auto budget = static_cast<std::int64_t>(rc.seconds * 1e9);
  std::size_t i = 0;
  for (; i < rc.plan.stream.size() && i < limit; ++i) {
    if (i >= rc.shape.exact_prefix && measured >= budget) break;
    request_record rec;
    rec.index = i;
    rec.arg = rc.plan.stream[i].arg;
    rec.kind = rc.plan.stream[i].kind;
    rec.ti = rc.plan.stream[i].ti;
    rec.checked = sampled_for_check(rc, i);
    try {
      run_one(rc.plan.stream[i], rec);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "request %zu failed: %s\n", i, e.what());
      rec.failed = true;
    }
    measured += rec.latency_ns;
    write_record(rc.out, pass, rec);
    if (i + 1 == rc.shape.exact_prefix && at_prefix) at_prefix();
  }
  return i;
}

// A request's answer against the uncached, unpruned reference.
void check_answer(request_record& rec, const std::vector<query_result>& got,
                  const std::vector<query_result>& want, const char* what) {
  if (got != want) {
    std::fprintf(stderr, "request %zu: %s answer differs from the reference\n",
                 rec.index, what);
    rec.failed = true;
  }
}

// Ingest and durable delete through the public calls, timed from call to
// return. An add is then checked, untimed, by a query: the picture must find
// itself among the exact (score 1) matches. Besides proving visibility, the
// check spaces the adds out, so their median samples more than a few
// milliseconds of a shared core's speed. A delete tombstones the record in
// memory, then waits for `commit` to make segment ordinal `ordinal` durable.
template <typename Db>
void run_write(const request& req, request_record& rec, Db& db,
               const std::vector<symbolic_image>& adds,
               tombstone_group_commit& commit, std::uint64_t ordinal,
               tracer* t) {
  if (req.kind == request_kind::add) {
    image_id id = 0;
    std::string name = "add" + std::to_string(req.arg);
    symbolic_image image = adds.at(req.arg);
    {
      scoped_span root(t, "request", static_cast<std::int64_t>(rec.index), -1);
      const auto t0 = clock_type::now();
      {
        scoped_span s(t, "db.add", static_cast<std::int64_t>(rec.index),
                      root.id());
        id = db.add(std::move(name), std::move(image));
      }
      rec.latency_ns = ns_since(t0, clock_type::now());
    }
    query_options exact;
    exact.top_k = 0;
    exact.min_score = 1.0;
    exact.histogram_pruning = true;
    const std::vector<query_result> hits = search(db, adds.at(req.arg), exact);
    if (std::none_of(hits.begin(), hits.end(),
                     [&](const query_result& r) { return r.id == id; })) {
      std::fprintf(stderr, "request %zu: added record not found\n",
                   rec.index);
      rec.failed = true;
    }
    return;
  }
  const auto id = static_cast<image_id>(req.arg);
  bool removed = false;
  {
    scoped_span root(t, "request", static_cast<std::int64_t>(rec.index), -1);
    const auto t0 = clock_type::now();
    {
      scoped_span s(t, "db.remove", static_cast<std::int64_t>(rec.index),
                    root.id());
      removed = db.remove(id);
    }
    {
      scoped_span s(t, "group_commit.remove",
                    static_cast<std::int64_t>(rec.index), root.id());
      commit.remove(ordinal);
    }
    rec.latency_ns = ns_since(t0, clock_type::now());
  }
  if (!removed || db.removed_epoch(id) == 0) {
    std::fprintf(stderr, "request %zu: delete of %u not applied\n", rec.index,
                 id);
    rec.failed = true;
  }
}

// --------------------------------------------------------- query-1e5

struct flat_corpus {
  std::unique_ptr<image_database> db;
  std::unique_ptr<spatial_index> spatial;
  std::unique_ptr<hybrid_index> hybrid;
};

// Loads the segment, then builds the indexes the planner plans over.
flat_corpus open_flat(const fs::path& path, double* load_s, double* build_s) {
  flat_corpus c;
  const auto t0 = clock_type::now();
  c.db = std::make_unique<image_database>(load_segment(path));
  const auto t1 = clock_type::now();
  c.spatial = std::make_unique<spatial_index>(*c.db);
  c.hybrid = std::make_unique<hybrid_index>(*c.db);
  const auto t2 = clock_type::now();
  *load_s = seconds_of(ns_since(t0, t1));
  *build_s = seconds_of(ns_since(t1, t2));
  return c;
}

// Runs the write probe once, after every pass, on a database whose corpus
// file is `segment`. Its records belong to pass 0 (it is never replayed);
// its spans, when traced, are span pass 2.
template <typename Db, typename OrdinalOf>
void write_probe_pass(const run_context& rc, Db& db,
                      const fs::path& segment, const fs::path& corpus,
                      OrdinalOf&& ordinal_of, tracer* t) {
  segment_writer writer(segment, /*append=*/true);
  tombstone_group_commit commit(writer);
  std::size_t i = rc.plan.stream.size();
  for (const request& req : rc.plan.probe) {
    request_record rec;
    rec.index = i++;
    rec.arg = req.arg;
    rec.kind = req.kind;
    rec.probe = true;
    rec.checked = true;
    try {
      run_write(req, rec, db, rc.adds, commit,
                req.kind == request_kind::remove
                    ? ordinal_of(static_cast<image_id>(req.arg))
                    : 0,
                t);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "probe request %zu failed: %s\n", rec.index,
                   e.what());
      rec.failed = true;
    }
    write_record(rc.out, 0, rec);
  }
  write_counters(rc, 0, corpus_bytes(corpus), db.live_size(),
                 commit.stats(), {});
}

int run_query_1e5(run_context& rc) {
  const fs::path corpus = rc.dir / "corpus.bseg";
  std::vector<double> total, load, build;
  std::optional<flat_corpus> c;
  for (std::size_t r = 0; r < rc.shape.setup_repeats; ++r) {
    c.reset();  // release the previous repetition before timing the next
    double l = 0, b = 0;
    c = open_flat(corpus, &l, &b);
    load.push_back(l);
    build.push_back(b);
    total.push_back(l + b);
  }
  write_setup(rc, corpus_bytes(corpus), c->db->size(), total, load, build,
              {});
  image_database& db = *c->db;
  const planner_context ctx{&db, c->spatial.get(), c->hybrid.get()};
  const access_path_context actx{&db, c->spatial.get(), c->hybrid.get()};

  // The uncached, unpruned reference over the planned candidate set: the
  // planner may pick a lossy path, but pruning on that set must be exact.
  auto reference = [&](const query_picture& q, const query_options& options) {
    const std::vector<symbol_id> symbols = distinct_symbols(q.image);
    const access_plan plan = plan_query(ctx, q.image, symbols, options);
    const std::vector<image_id> ids =
        make_access_path(plan.path, actx)
            ->generate({&q.image, symbols, plan.pad});
    return search_candidates(db, encode(q.image), ids,
                             reference_options(options));
  };

  auto untraced = [&](const request& req, request_record& rec) {
    const query_picture& q = rc.pool.at(req.arg);
    const query_options options = query_options_for(req.ti, true);
    std::vector<query_result> got;
    const auto t0 = clock_type::now();
    got = search_planned(ctx, q.image, options, &rec.stats);
    rec.latency_ns = ns_since(t0, clock_type::now());
    rec.grades = grades_of(got, q.judgments);
    rec.ideal = ideal_of(q.judgments);
    if (rec.checked) check_answer(rec, got, reference(q, options), "planned");
  };

  tracer spans(rc.origin);
  auto traced = [&](const request& req, request_record& rec) {
    const query_picture& q = rc.pool.at(req.arg);
    const query_options options = query_options_for(req.ti, true);
    const auto i = static_cast<std::int64_t>(rec.index);
    std::vector<query_result> got;
    std::vector<image_id> ids;
    be_string2d strings;
    std::vector<symbol_id> symbols;
    access_plan plan;
    access_path_stats gen;
    {
      scoped_span root(&spans, "request", i, -1);
      const auto t0 = clock_type::now();
      {
        scoped_span s(&spans, "core.encode", i, root.id());
        strings = encode(q.image);
        symbols = distinct_symbols(q.image);
      }
      {
        scoped_span s(&spans, "planner.plan", i, root.id());
        plan = plan_query(ctx, q.image, symbols, options);
      }
      {
        scoped_span s(&spans, "access.generate", i, root.id());
        ids = make_access_path(plan.path, actx)
                  ->generate({&q.image, symbols, plan.pad}, &gen);
      }
      {
        scoped_span s(&spans, req.ti ? "scan.ti" : "scan", i, root.id());
        got = search_candidates(db, strings, ids, options, &rec.stats);
      }
      rec.latency_ns = ns_since(t0, clock_type::now());
    }
    rec.stats.candidates_generated = gen.candidates_generated;
    rec.stats.plans.push_back({plan.path, plan.pad,
                               plan.estimated_candidates, ids.size()});
    rec.nodes_visited = gen.nodes_visited;
    rec.grades = grades_of(got, q.judgments);
    rec.ideal = ideal_of(q.judgments);
    rec.candidates_ns = time_ns(
        [&] { (void)db.candidates(std::span<const symbol_id>(symbols)); });
    lcs_probe(rec, strings, req.ti, ids, got, options.similarity,
              [&](image_id id) -> const db_record& { return db.record(id); });
    if (rec.checked) {
      // The split must do exactly what search_planned does.
      search_stats planned_stats;
      check_answer(rec, got,
                   search_planned(ctx, q.image, strings, symbols, options,
                                  &planned_stats),
                   "split");
      if (planned_stats.scored != rec.stats.scored ||
          planned_stats.candidates_generated != gen.candidates_generated) {
        std::fprintf(stderr, "request %zu: split stats differ\n", rec.index);
        rec.failed = true;
      }
    }
  };

  const std::size_t ran =
      drive(rc, 0, rc.plan.stream.size(), untraced, nullptr);
  if (rc.trace) {
    drive(rc, 1, ran, traced, nullptr);
    write_spans(rc, 1, spans);
  }
  // The write probe runs after every timed query, on the open segment.
  tracer probe_spans(rc.origin);
  write_probe_pass(
      rc, db, corpus, corpus,
      [](image_id id) { return static_cast<std::uint64_t>(id); },
      rc.trace ? &probe_spans : nullptr);
  if (rc.trace) write_spans(rc, 2, probe_spans);
  return 0;
}

// --------------------------------------------------------- live-zipf

// Members are destroyed in reverse order, so the group commit drains
// before its writer closes.
struct live_state {
  std::unique_ptr<image_database> db;
  std::unique_ptr<segment_writer> writer;
  std::unique_ptr<tombstone_group_commit> commit;
  std::unique_ptr<result_cache> cache;
};

// Opens the live corpus from a pristine copy: load, then the segment
// writer and group commit that take durable deletes.
std::unique_ptr<live_state> open_live(const run_context& rc,
                                      const fs::path& live, double* load_s) {
  fs::copy_file(rc.dir / "corpus.bseg", live,
                fs::copy_options::overwrite_existing);
  auto s = std::make_unique<live_state>();
  const auto t0 = clock_type::now();
  s->db = std::make_unique<image_database>(load_segment(live));
  s->writer = std::make_unique<segment_writer>(live, /*append=*/true);
  s->commit = std::make_unique<tombstone_group_commit>(*s->writer);
  s->cache = std::make_unique<result_cache>(
      result_cache_options{.capacity = cache_capacity});
  *load_s = seconds_of(ns_since(t0, clock_type::now()));
  return s;
}

int run_live_zipf(run_context& rc) {
  const fs::path live = rc.dir / "live.bseg";
  std::vector<double> total;
  std::unique_ptr<live_state> state;
  for (std::size_t r = 0; r < rc.shape.setup_repeats; ++r) {
    state.reset();  // release the previous repetition before timing the next
    double l = 0;
    state = open_live(rc, live, &l);
    total.push_back(l);
  }
  write_setup(rc, corpus_bytes(rc.dir / "corpus.bseg"), state->db->size(),
              total, total, {}, {});

  tracer spans(rc.origin);
  auto run_one = [&](tracer* t) {
    return [&, t](const request& req, request_record& rec) {
      image_database& db = *state->db;
      if (req.kind != request_kind::query) {
        run_write(req, rec, db, rc.adds, *state->commit, req.arg, t);
        return;
      }
      const query_picture& q = rc.pool.at(req.arg);
      const query_options options = query_options_for(req.ti, false);
      const auto i = static_cast<std::int64_t>(rec.index);
      std::vector<query_result> got;
      be_string2d strings;
      std::vector<symbol_id> symbols;
      if (t == nullptr) {
        const auto t0 = clock_type::now();
        got = search_cached(db, *state->cache, q.image, options, &rec.stats);
        rec.latency_ns = ns_since(t0, clock_type::now());
      } else {
        scoped_span root(t, "request", i, -1);
        const auto t0 = clock_type::now();
        {
          scoped_span s(t, "core.encode", i, root.id());
          strings = encode(q.image);
          symbols = distinct_symbols(q.image);
        }
        {
          scoped_span s(t, "cache.search", i, root.id());
          got = search_cached(db, *state->cache, strings, symbols, options,
                              &rec.stats);
        }
        rec.latency_ns = ns_since(t0, clock_type::now());
      }
      rec.cache_outcome = rec.stats.cache_hits     ? 'h'
                          : rec.stats.cache_misses ? 'm'
                                                   : 'd';
      rec.grades = grades_of(got, q.judgments);
      rec.ideal = ideal_of(q.judgments);
      if (t != nullptr) {
        rec.key_ns = time_ns([&] {
          (void)make_cache_key(strings, symbols, options, cache_scope::flat,
                               1, 0);
        });
        std::vector<image_id> ids;
        rec.candidates_ns = time_ns([&] {
          ids = db.candidates(std::span<const symbol_id>(symbols));
        });
        if (rec.cache_outcome == 'm') {
          lcs_probe(rec, strings, req.ti, ids, got, options.similarity,
                    [&](image_id id) -> const db_record& {
                      return db.record(id);
                    });
        }
      }
      if (rec.checked) {
        if (t == nullptr) {
          strings = encode(q.image);
          symbols = distinct_symbols(q.image);
        }
        check_answer(rec, got,
                     search(db.snapshot(), strings, symbols,
                            reference_options(options)),
                     "cached");
      }
    };
  };
  auto at_prefix = [&](int pass) {
    return [&, pass] {
      write_counters(rc, pass, corpus_bytes(live), state->db->live_size(),
                     state->commit->stats(), state->cache->stats());
    };
  };

  // Cache churn over a whole pass (the exact prefix is too short to fill
  // the cache).
  auto pass_end = [&](int pass, std::size_t requests) {
    std::fprintf(rc.out,
                 "{\"t\":\"pass_end\",\"pass\":%d,\"requests\":%zu,"
                 "\"cache_evictions\":%llu}\n",
                 pass, requests,
                 static_cast<unsigned long long>(
                     state->cache->stats().evictions));
  };
  const std::size_t ran =
      drive(rc, 0, rc.plan.stream.size(), run_one(nullptr), at_prefix(0));
  pass_end(0, ran);
  if (rc.trace) {
    // The traced replay starts from identical state.
    double ignored = 0;
    state.reset();
    state = open_live(rc, live, &ignored);
    pass_end(1, drive(rc, 1, ran, run_one(&spans), at_prefix(1)));
    write_spans(rc, 1, spans);
  }
  return 0;
}

// --------------------------------------------------------- remote-1e5

int run_remote_1e5(run_context& rc) {
  const fs::path corpus = rc.dir / "corpus";
  std::vector<double> total, load, start;
  std::unique_ptr<sharded_database> sharded;
  std::unique_ptr<net::loopback_cluster> cluster;
  for (std::size_t r = 0; r < rc.shape.setup_repeats; ++r) {
    cluster.reset();
    sharded.reset();
    const auto t0 = clock_type::now();
    sharded =
        std::make_unique<sharded_database>(load_sharded_corpus(corpus));
    const auto t1 = clock_type::now();
    cluster = std::make_unique<net::loopback_cluster>(*sharded);
    if (cluster->front().fetch_symbols().size() !=
        sharded->symbols().size()) {
      throw std::runtime_error("shard servers report a different alphabet");
    }
    const auto t2 = clock_type::now();
    load.push_back(seconds_of(ns_since(t0, t1)));
    start.push_back(seconds_of(ns_since(t1, t2)));
    total.push_back(seconds_of(ns_since(t0, t2)));
  }
  write_setup(rc, corpus_bytes(corpus), sharded->size(), total, load, {},
              start);
  net::coordinator& front = cluster->front();

  tracer spans(rc.origin);
  auto run_one = [&](tracer* t) {
    return [&, t](const request& req, request_record& rec) {
      const query_picture& q = rc.pool.at(req.arg);
      const query_options options = query_options_for(req.ti, true);
      const auto i = static_cast<std::int64_t>(rec.index);
      net::remote_result got;
      be_string2d strings;
      std::vector<symbol_id> symbols;
      {
        scoped_span root(t, "request", i, -1);
        const auto t0 = clock_type::now();
        {
          scoped_span s(t, "core.encode", i, root.id());
          strings = encode(q.image);
          symbols = distinct_symbols(q.image);
        }
        {
          scoped_span s(t, "net.search", i, root.id());
          got = front.search(strings, symbols, options);
        }
        rec.latency_ns = ns_since(t0, clock_type::now());
      }
      rec.stats = got.stats;
      if (got.stats.degraded) {
        std::fprintf(stderr, "request %zu: degraded remote answer\n",
                     rec.index);
        rec.failed = true;
      }
      rec.grades = grades_of(got.results, q.judgments);
      rec.ideal = ideal_of(q.judgments);
      if (t != nullptr) {
        // The in-process fan-out over the same shards: the floor the wire
        // adds to.
        query_options fanout = options;
        fanout.threads = static_cast<unsigned>(shard_count);
        search_stats fanout_stats;
        rec.fanout_ns = time_ns([&] {
          (void)search(*sharded, strings, symbols, fanout, &fanout_stats);
        });
        rec.fanout_scored = fanout_stats.scored;
        std::vector<image_id> ids;
        rec.candidates_ns = time_ns([&] {
          ids = sharded->candidates(std::span<const symbol_id>(symbols));
        });
        lcs_probe(rec, strings, req.ti, ids, got.results, options.similarity,
                  [&](image_id id) -> const db_record& {
                    return sharded->record(id);
                  });
      }
      if (rec.checked && t == nullptr) {
        check_answer(
            rec, got.results,
            search(*sharded, strings, symbols, reference_options(options)),
            "remote");
      }
    };
  };

  const std::size_t ran =
      drive(rc, 0, rc.plan.stream.size(), run_one(nullptr), nullptr);
  if (rc.trace) {
    drive(rc, 1, ran, run_one(&spans), nullptr);
    write_spans(rc, 1, spans);
  }
  // Stop serving before the write probe: the servers hold a copy of the
  // shard id maps, which adds would outgrow.
  cluster.reset();
  tracer probe_spans(rc.origin);
  write_probe_pass(
      rc, *sharded, corpus / "shard-0000.bseg", corpus,
      [&](image_id id) {
        if (sharded->shard_of(id) != 0) {
          throw std::logic_error("probe delete outside shard 0");
        }
        return static_cast<std::uint64_t>(sharded->record(id).id);
      },
      rc.trace ? &probe_spans : nullptr);
  if (rc.trace) write_spans(rc, 2, probe_spans);
  return 0;
}

int run_workload(run_context& rc) {
  rc.plan = read_requests(rc.dir / "requests.txt");
  rc.pool = load_pool(rc.dir / "pool.bseg");
  rc.adds = load_adds(rc.dir / "adds.bseg");
  int status = 0;
  if (rc.workload == "query-1e5") {
    status = run_query_1e5(rc);
  } else if (rc.workload == "live-zipf") {
    status = run_live_zipf(rc);
  } else {
    status = run_remote_1e5(rc);
  }
  std::fprintf(rc.out,
               "{\"t\":\"end\",\"peak_rss_kb\":%llu,\"kernel\":\"%s\"}\n",
               static_cast<unsigned long long>(peak_rss_kb()),
               std::string(active_lcs_kernel().name).c_str());
  return status;
}

// ------------------------------------------------------------ main

std::string flag(int argc, char** argv, const char* name,
                 const char* fallback = nullptr) {
  for (int i = 2; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  if (fallback != nullptr) return fallback;
  throw std::invalid_argument(std::string("missing ") + name);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) throw std::invalid_argument("usage: perfbench gen|run ...");
    const std::string mode = argv[1];
    const std::string workload = flag(argc, argv, "--workload");
    shape_of(workload);  // validates the name
    const fs::path dir = flag(argc, argv, "--dir");
    if (mode == "gen") {
      return run_gen(workload, std::stoull(flag(argc, argv, "--seed")), dir);
    }
    if (mode != "run") throw std::invalid_argument("unknown mode " + mode);
    run_context rc;
    rc.workload = workload;
    rc.shape = shape_of(workload);
    rc.dir = dir;
    rc.seed = std::stoull(flag(argc, argv, "--seed"));
    rc.seconds = std::stod(flag(argc, argv, "--seconds"));
    rc.trace = flag(argc, argv, "--trace", "0") == "1";
    const std::string out_path = flag(argc, argv, "--out");
    rc.out = std::fopen(out_path.c_str(), "w");
    if (rc.out == nullptr) throw std::runtime_error("cannot open " + out_path);
    const int status = run_workload(rc);
    if (std::fclose(rc.out) != 0) {
      throw std::runtime_error("cannot write " + out_path);
    }
    return status;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}

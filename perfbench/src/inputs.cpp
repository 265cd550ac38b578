#include "inputs.h"

#include <filesystem>
#include <stdexcept>

#include "graph/io.h"
#include "spans.h"

namespace perfbench {

namespace fs = std::filesystem;

Workload workload_by_name(const std::string& name) {
  if (name == "social") return {"social", "TwtrMpi", 24.0, 48};
  if (name == "web") return {"web", "SK", 18.0, 16};
  throw std::invalid_argument("unknown workload: " + name);
}

namespace {

void ensure_graph(const Workload& w, std::uint64_t seed,
                  ihtl::DatasetScale scale, const std::string& path,
                  double& generate_s) {
  if (fs::exists(path)) return;
  const std::int64_t t0 = now_ns();
  // The dataset's kind and skew fix the generator parameters; the spec
  // name only seeds the generator, so appending the seed varies the graph
  // and nothing else.
  ihtl::DatasetSpec spec = ihtl::dataset_spec(w.dataset);
  spec.name += '#';
  spec.name += std::to_string(seed);
  const ihtl::Graph g = ihtl::make_dataset(spec, scale);
  const std::string tmp = path + ".tmp";
  ihtl::save_graph_binary(g, tmp);
  fs::rename(tmp, path);
  generate_s += static_cast<double>(now_ns() - t0) * 1e-9;
}

}  // namespace

InputFiles ensure_inputs(const Workload& w, std::uint64_t seed,
                         const std::string& cache_dir) {
  const fs::path dir =
      fs::path(cache_dir) / (w.name + "-s" + std::to_string(seed));
  fs::create_directories(dir);
  InputFiles files;
  files.large = (dir / "large.ihtlgr").string();
  files.serve = (dir / "serve.ihtlgr").string();
  ensure_graph(w, seed, ihtl::DatasetScale::large, files.large,
               files.generate_s);
  ensure_graph(w, seed, ihtl::DatasetScale::bench, files.serve,
               files.generate_s);
  return files;
}

}  // namespace perfbench

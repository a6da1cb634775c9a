// Command line of the wall-clock benchmark binary. run.py is the usual
// entry point; it builds this binary, generates the inputs and calls:
//
//   wallbench params --workload W --seed S [--tiny]
//   wallbench gen --workload W --seed S --out DIR [--tiny]
//   wallbench run --workload W --graph FILE [--coords FILE] --seconds N
//                 --trace 0|1 [--trace-out FILE] [--tiny]
//
// Each prints one JSON object on stdout.
#include <cstdio>
#include <exception>
#include <map>
#include <stdexcept>
#include <string>

#include "wallbench.hpp"

namespace {

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) throw std::invalid_argument("unexpected " + key);
    if (key == "--tiny") {
      flags["tiny"] = "1";
    } else if (i + 1 < argc) {
      flags[key.substr(2)] = argv[++i];
    } else {
      throw std::invalid_argument(key + " needs a value");
    }
  }
  return flags;
}

std::string need(const std::map<std::string, std::string>& f,
                 const std::string& key) {
  const auto it = f.find(key);
  if (it == f.end()) throw std::invalid_argument("missing --" + key);
  return it->second;
}

std::string get(const std::map<std::string, std::string>& f,
                const std::string& key) {
  const auto it = f.find(key);
  return it == f.end() ? std::string() : it->second;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) throw std::invalid_argument("usage: wallbench params|gen|run ...");
    const std::string mode = argv[1];
    const auto f = parse_flags(argc, argv);
    const wb::Workload& w = wb::find_workload(need(f, "workload"));
    const wb::Size size{f.count("tiny") != 0};
    sp::obs::JsonValue out;
    if (mode == "params") {
      out = wb::input_params(w, size, std::stoull(need(f, "seed")));
    } else if (mode == "gen") {
      out = wb::generate(w, size, std::stoull(need(f, "seed")), need(f, "out"));
    } else if (mode == "run") {
      wb::RunArgs args;
      args.graph_path = need(f, "graph");
      args.coords_path = get(f, "coords");
      args.seconds = std::stod(need(f, "seconds"));
      args.trace = need(f, "trace") == "1";
      args.trace_out = get(f, "trace-out");
      out = wb::run(w, size, args);
    } else {
      throw std::invalid_argument("unknown mode " + mode);
    }
    std::printf("%s\n", out.dump().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wallbench: %s\n", e.what());
    return 1;
  }
}

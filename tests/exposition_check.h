// Checks Prometheus text exposition the way a scraper reads it, for the
// exporter's unit tests and for the text a server serves over the wire.
#ifndef RAR_TESTS_EXPOSITION_CHECK_H_
#define RAR_TESTS_EXPOSITION_CHECK_H_

#include <map>
#include <sstream>
#include <string>

namespace rar {

/// Every family has exactly one `# HELP` line with text and one `# TYPE`
/// line, both before its first sample; a family's lines are contiguous and
/// its name is declared once; every sample belongs to a declared family (a
/// summary owns its `_sum` and `_count` samples). Returns one line per
/// problem found; empty when the text is well formed.
inline std::string ExpositionProblems(const std::string& text) {
  struct Family {
    int help = 0;
    int type = 0;
    std::string kind;
  };
  std::map<std::string, Family> families;
  std::string current;  // family whose block the text is in
  std::string problems;
  auto problem = [&problems](const std::string& what) {
    problems += what + "\n";
  };

  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const bool help = line.rfind("# HELP ", 0) == 0;
    if (help || line.rfind("# TYPE ", 0) == 0) {
      const std::string rest = line.substr(7);
      const size_t space = rest.find(' ');
      const std::string name = rest.substr(0, space);
      const std::string arg =
          space == std::string::npos ? "" : rest.substr(space + 1);
      if (name != current && families.count(name) > 0) {
        problem(name + ": declared again after another family");
      }
      current = name;
      Family& f = families[name];
      if (++(help ? f.help : f.type) > 1) {
        problem(name + (help ? ": second HELP line" : ": second TYPE line"));
      }
      if (arg.empty()) problem(name + ": empty " + (help ? "HELP" : "TYPE"));
      if (!help) f.kind = arg;
      continue;
    }
    if (line.empty() || line[0] == '#') {
      problem("stray line: '" + line + "'");
      continue;
    }
    const std::string sample = line.substr(0, line.find_first_of("{ "));
    std::string owner = sample;
    for (const char* suffix : {"_sum", "_count"}) {
      const std::string s = suffix;
      if (owner.size() > s.size() &&
          owner.compare(owner.size() - s.size(), s.size(), s) == 0) {
        const std::string base = owner.substr(0, owner.size() - s.size());
        auto it = families.find(base);
        if (it != families.end() && it->second.kind == "summary") {
          owner = base;
        }
      }
    }
    auto it = families.find(owner);
    if (it == families.end()) {
      problem(sample + ": sample of an undeclared family");
    } else if (owner != current) {
      problem(sample + ": sample outside its family's block");
    } else if (it->second.help != 1 || it->second.type != 1) {
      problem(sample + ": sample before its family's HELP and TYPE lines");
    }
  }
  return problems;
}

}  // namespace rar

#endif  // RAR_TESTS_EXPOSITION_CHECK_H_

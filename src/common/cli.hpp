// Minimal command-line flag parser for the examples and benches.
// Supports --key value and --key=value. Nothing is validated here: a flag
// no caller reads is ignored, and get_int/get_double return 0 for text
// that is not a number, so callers range-check the values they use.
#pragma once

#include <map>
#include <string>

namespace gc {

class CliArgs {
 public:
  CliArgs(int argc, char** argv);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string get(const std::string& key,
                                std::string fallback) const;
  [[nodiscard]] long get_int(const std::string& key, long fallback) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  /// argv[0] as given.
  [[nodiscard]] std::string program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
};

}  // namespace gc

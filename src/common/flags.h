#ifndef M2M_COMMON_FLAGS_H_
#define M2M_COMMON_FLAGS_H_

#include <map>
#include <string>
#include <vector>

namespace m2m {

/// Minimal command-line flag parser for the example binaries: accepts
/// `--name=value`, `--name value`, and bare `--name` (boolean true).
/// Unknown positional arguments are collected; `Get*` calls record each
/// flag's description so `Usage()` can print a help text.
class FlagParser {
 public:
  FlagParser(int argc, const char* const argv[]);

  FlagParser(const FlagParser&) = default;
  FlagParser& operator=(const FlagParser&) = default;
  FlagParser(FlagParser&&) noexcept = default;
  FlagParser& operator=(FlagParser&&) noexcept = default;

  std::string GetString(const std::string& name,
                        const std::string& default_value,
                        const std::string& description);
  int64_t GetInt(const std::string& name, int64_t default_value,
                 const std::string& description);
  double GetDouble(const std::string& name, double default_value,
                   const std::string& description);
  bool GetBool(const std::string& name, bool default_value,
               const std::string& description);

  /// True when --help/-h was passed.
  bool help_requested() const { return help_; }

  /// Flags present on the command line that no Get* call consumed; callers
  /// should treat a non-empty result as a usage error.
  std::vector<std::string> UnconsumedFlags() const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Help text built from the recorded descriptions.
  std::string Usage(const std::string& program_summary) const;

 private:
  struct Registered {
    std::string default_value;
    std::string description;
  };

  std::string program_;
  std::map<std::string, std::string> values_;
  std::map<std::string, bool> consumed_;
  std::map<std::string, Registered> registered_;
  std::vector<std::string> positional_;
  bool help_ = false;
};

}  // namespace m2m

#endif  // M2M_COMMON_FLAGS_H_

#pragma once
/// \file bench_util.hpp
/// Shared plumbing for the table/figure harnesses: preset resolution from
/// env + CLI, artifact paths, and fixed-width table printing that mirrors
/// the paper's layout.

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "core/presets.hpp"
#include "util/config.hpp"
#include "util/env.hpp"

namespace dlpic::benchutil {

/// Resolves the preset: DLPIC_PRESET env, overridden by --preset=... .
inline core::Preset resolve_preset(const util::Config& cfg) {
  std::string name = util::env_string_or("DLPIC_PRESET", "ci");
  name = cfg.get_or("preset", name);
  return core::preset_by_name(name);
}

/// Artifacts directory: --artifacts=... or DLPIC_ARTIFACTS or ./artifacts,
/// created when missing (as core::Pipeline does) so harnesses that write
/// their CSVs straight into it run from any working directory.
inline std::string resolve_artifacts(const util::Config& cfg) {
  std::string dir =
      cfg.get_or("artifacts", util::env_string_or("DLPIC_ARTIFACTS", "artifacts"));
  std::filesystem::create_directories(dir);
  return dir;
}

/// Prints a horizontal rule sized for the standard table width.
inline void hrule(size_t width = 72) {
  for (size_t i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

/// Prints a banner naming the experiment being regenerated.
inline void banner(const std::string& title, const std::string& preset) {
  hrule();
  std::printf("%s   [preset: %s]\n", title.c_str(), preset.c_str());
  hrule();
}

}  // namespace dlpic::benchutil

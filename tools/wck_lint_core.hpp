// wck_lint — the project-invariant linter (see TOOLING.md "Project
// linter").
//
// clang-tidy enforces general C++ hygiene; wck_lint enforces the small
// set of invariants that are *this project's* conventions and that no
// off-the-shelf check knows about:
//
//   R1 ignored-result   Results of error-reporting calls (remove_file,
//                       exists, scrub, write_async, submit, ...) must be
//                       consumed; an explicit `(void)` cast is the
//                       sanctioned discard.
//   R2 raw-file-io      All file I/O outside src/io/ must go through an
//                       IoBackend — no std::ofstream/std::ifstream/
//                       fopen/::open in the rest of src/ or in
//                       bench/study/, or fault injection silently loses
//                       coverage.
//   R3 naked-mutex      No std::mutex / std::lock_guard / std::unique_lock
//                       / std::condition_variable in src/ or bench/study/
//                       outside src/util/thread_annotations.hpp: shared state
//                       uses the annotated wck::Mutex wrappers so Clang's
//                       thread-safety analysis sees every lock.
//   R4 metric-name      String-literal metric names passed to the
//                       telemetry macros / registry must be
//                       dotted.lowercase ("ckpt.async.queue_depth").
//   R5 getenv           std::getenv only inside src/util/env.hpp — every
//                       other read goes through the race-free wck::env
//                       cache.
//   R6 raw-socket       socket()/bind()/connect()/accept()/listen() only
//                       inside src/net/ — the rest of the tree speaks
//                       frames and messages through UnixStream/
//                       UnixListener (src/net/socket.hpp).
//   R7 raw-simd        Intrinsics headers (immintrin.h, emmintrin.h,
//                       arm_neon.h, ...) only inside src/simd/ — the
//                       rest of the tree calls vector code through the
//                       runtime-dispatched kernel table
//                       (src/simd/dispatch.hpp), so bit-identity tests
//                       and the WCK_SIMD override cover every kernel.
//
// The scanner is a token-level pass over comment/string-blanked text —
// deliberately not a real C++ parser. It favors false negatives over
// false positives, and anything it cannot decide (non-literal metric
// names, calls in expression position) it skips. Findings not in
// tools/wck_lint_baseline.txt fail the gate, mirroring the clang-tidy
// baseline contract in tools/run_tidy.sh.
#pragma once

#include <filesystem>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace wck::lint {

struct Finding {
  std::string file;  ///< repo-relative, '/'-separated
  int line = 0;      ///< 1-based
  std::string message;
  std::string rule;  ///< "ignored-result", "raw-file-io", ...

  friend bool operator==(const Finding&, const Finding&) = default;
};

/// "file:line: message [rule]" — the baseline/report format (matches the
/// normalized clang-tidy format of tools/run_tidy.sh).
[[nodiscard]] std::string format(const Finding& f);

/// Scans one file's contents. `rel_path` is the repo-relative path with
/// '/' separators; it decides which rules apply (e.g. R2 exempts
/// src/io/, R3/R5 exempt their sanctioned homes). Findings come back in
/// line order.
[[nodiscard]] std::vector<Finding> scan_file(const std::string& rel_path,
                                             std::string_view text);

/// Scans every .cpp/.hpp/.h under <root>/src, <root>/tools and
/// <root>/bench (tests are intentionally out of scope — they may poke at
/// raw primitives on purpose). Findings are sorted by file, then line.
[[nodiscard]] std::vector<Finding> scan_tree(const std::filesystem::path& root);

/// Loads a baseline file: one formatted finding per line, blank lines
/// and '#' comments ignored. A missing file is an empty baseline.
[[nodiscard]] std::set<std::string> load_baseline(const std::filesystem::path& path);

}  // namespace wck::lint

#!/usr/bin/env bash
# clang-tidy gate over src/ and the study library bench/study/ (config:
# .clang-tidy at the repo root).
#
# Usage:
#   tools/run_tidy.sh [build-dir]
#
# The build dir (default: $WCK_BUILD_DIR, then ./build) must contain
# compile_commands.json (the root CMakeLists exports it unconditionally).
#
# Behavior:
#   * Runs clang-tidy over every src/**/*.cpp and bench/study/**/*.cpp
#     translation unit; headers under both are covered via
#     HeaderFilterRegex.
#   * Findings are normalized (paths made repo-relative, columns dropped)
#     and compared against tools/tidy_baseline.txt. Any finding NOT in
#     the baseline fails the gate; baseline entries that no longer fire
#     are reported so the baseline can shrink, but do not fail.
#   * If no clang-tidy binary exists (e.g. a gcc-only container), prints
#     a notice and exits 0 — the gate is enforced where clang-tidy is
#     installed (CI's tidy job), not silently everywhere.
set -u -o pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${WCK_BUILD_DIR:-${repo_root}/build}}"
baseline="${repo_root}/tools/tidy_baseline.txt"

find_tidy() {
  if [ -n "${CLANG_TIDY:-}" ] && command -v "${CLANG_TIDY}" >/dev/null 2>&1; then
    echo "${CLANG_TIDY}"
    return 0
  fi
  for candidate in clang-tidy clang-tidy-20 clang-tidy-19 clang-tidy-18 \
                   clang-tidy-17 clang-tidy-16 clang-tidy-15 clang-tidy-14; do
    if command -v "${candidate}" >/dev/null 2>&1; then
      echo "${candidate}"
      return 0
    fi
  done
  return 1
}

tidy_bin="$(find_tidy)" || {
  echo "run_tidy.sh: clang-tidy not found; SKIPPING static-analysis gate" >&2
  echo "             (install clang-tidy or set CLANG_TIDY to enforce locally)" >&2
  exit 0
}

if [ ! -f "${build_dir}/compile_commands.json" ]; then
  echo "run_tidy.sh: ${build_dir}/compile_commands.json not found." >&2
  echo "             Configure first: cmake --preset relwithdebinfo" >&2
  exit 2
fi

mapfile -t sources < <(find "${repo_root}/src" "${repo_root}/bench/study" -name '*.cpp' | sort)
if [ "${#sources[@]}" -eq 0 ]; then
  echo "run_tidy.sh: no sources under src/ or bench/study/ — nothing to do" >&2
  exit 2
fi

echo "run_tidy.sh: $("${tidy_bin}" --version | head -n 2 | tail -n 1 | sed 's/^ *//')"
echo "run_tidy.sh: checking ${#sources[@]} translation units against ${baseline#"${repo_root}"/}"

raw_log="$(mktemp)"
trap 'rm -f "${raw_log}" "${raw_log}.findings" "${raw_log}.new" "${raw_log}.baseline"' EXIT

status=0
for src in "${sources[@]}"; do
  "${tidy_bin}" -p "${build_dir}" --quiet "${src}" >> "${raw_log}" 2>/dev/null || status=$?
done

# Normalize: keep only "file:line: warning/error: message [check]" lines,
# strip the repo prefix and the column number (stable across versions).
sed -E -n "s|^${repo_root}/||; s|^([^:]+):([0-9]+):[0-9]+: (warning\|error): |\1:\2: |p" \
  "${raw_log}" | sort -u > "${raw_log}.findings"

grep -v -E '^[[:space:]]*(#|$)' "${baseline}" 2>/dev/null | sort -u > "${raw_log}.baseline" || true

new_findings="$(comm -23 "${raw_log}.findings" "${raw_log}.baseline")"
stale_entries="$(comm -13 "${raw_log}.findings" "${raw_log}.baseline")"

if [ -n "${stale_entries}" ]; then
  echo "run_tidy.sh: NOTE: baseline entries that no longer fire (consider removing):"
  echo "${stale_entries}" | sed 's/^/  /'
fi

if [ -n "${new_findings}" ]; then
  echo "run_tidy.sh: FAIL — new clang-tidy findings not in the baseline:" >&2
  echo "${new_findings}" | sed 's/^/  /' >&2
  echo "Fix them, or (with justification) append to tools/tidy_baseline.txt." >&2
  exit 1
fi

echo "run_tidy.sh: OK — no new findings"
exit 0

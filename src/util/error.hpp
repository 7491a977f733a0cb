// Error hierarchy shared by all wavelet-ckpt subsystems.
//
// Every failure that crosses a public API boundary is reported by throwing
// one of these types (Core Guidelines I.10). Callers that need to
// distinguish causes (e.g. a corrupted checkpoint vs. an I/O failure)
// catch the specific subclass.
#pragma once

#include <stdexcept>
#include <string>

namespace wck {

/// Base class of all library errors.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// A caller passed an argument that violates a documented precondition.
class InvalidArgumentError : public Error {
 public:
  explicit InvalidArgumentError(const std::string& what) : Error(what) {}
};

/// A serialized stream (checkpoint payload, DEFLATE bitstream, ...) is
/// malformed: bad magic, impossible lengths, invalid codes.
class FormatError : public Error {
 public:
  explicit FormatError(const std::string& what) : Error(what) {}
};

/// Data failed an integrity check (CRC-32 / Adler-32 mismatch,
/// a truncated stream detected past the header).
class CorruptDataError : public Error {
 public:
  explicit CorruptDataError(const std::string& what) : Error(what) {}
};

/// An operating-system I/O operation failed (open/read/write/remove).
class IoError : public Error {
 public:
  explicit IoError(const std::string& what) : Error(what) {}
};

/// An I/O operation did not complete within its deadline (socket
/// read/write/connect past its timeout, a drain that expired). Derives
/// from IoError so callers that only distinguish "I/O trouble" keep
/// working; callers that care (retry layers, connection reapers) catch
/// the subclass.
class TimeoutError : public IoError {
 public:
  explicit TimeoutError(const std::string& what) : IoError(what) {}
};

/// Admitting the request would exceed a configured byte/generation
/// quota. The store is untouched: quota checks run before any commit.
class QuotaExceededError : public Error {
 public:
  explicit QuotaExceededError(const std::string& what) : Error(what) {}
};

/// The service is at its admission limit (bounded in-flight queue) and
/// the backpressure policy rejected the request instead of blocking.
/// Retriable by construction: nothing was written.
class BusyError : public Error {
 public:
  explicit BusyError(const std::string& what) : Error(what) {}
};

/// The named entity (tenant, generation) does not exist.
class NotFoundError : public Error {
 public:
  explicit NotFoundError(const std::string& what) : Error(what) {}
};

}  // namespace wck

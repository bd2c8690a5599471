//===- Protocol.h - mvecd wire protocol -------------------------*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mvecd wire protocol: a minimal HTTP-shaped, length-prefixed frame
/// that one read loop can parse without ambiguity —
///
///   MVEC/1 VEC\n            request:  "MVEC/1 " verb "\n"
///   tenant: alice\n         headers:  "name: value\n" (no \n in values)
///   validate: 1\n
///   content-length: 58\n
///   \n                      blank line ends the header block
///   <58 bytes of body>      exactly content-length bytes, no terminator
///
///   MVEC/1 200 ok\n         response: "MVEC/1 " code " " reason "\n"
///   status: succeeded\n
///   cache: memory\n
///   content-length: 71\n
///   \n
///   <71 bytes of body>
///
/// Verbs: VEC (body = MATLAB source, response body = vectorized source),
/// PING, STATS (response body = daemon metrics JSON), CONFIG (body = a
/// daemon config file to hot-reload), SHUTDOWN (ask the server to drain
/// and exit). Connections are persistent: frames are processed in order
/// until EOF or a malformed frame.
///
/// Only two response codes exist: 200 (the request was processed — the
/// job-level outcome lives in the `status` header, including degraded
/// passthrough) and 400 (the *frame* was malformed; the server closes the
/// connection after sending it). A valid frame is never answered with
/// 400, which is what makes the daemon's no-protocol-error guarantee
/// mechanically checkable.
///
/// Everything in this file is transport-independent (operates on byte
/// buffers, never sockets) so the framing logic is unit-testable, and
/// holds the one copy of the conversions between frames and jobs.
///
//===----------------------------------------------------------------------===//

#ifndef MVEC_DAEMON_PROTOCOL_H
#define MVEC_DAEMON_PROTOCOL_H

#include "service/Job.h"

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace mvec {
namespace daemon {

/// Default frame-size ceilings: a peer that blows these is answered 400
/// and disconnected before it can balloon server memory. FrameReader
/// instances can tighten (or widen) the body limit per connection — see
/// the `max_frame_bytes` daemon config key — and the content-length
/// check fires *before* any body byte is buffered, so a hostile
/// huge-length header costs at most MaxHeaderBytes of memory.
constexpr size_t MaxHeaderBytes = 64 * 1024;
constexpr size_t MaxBodyBytes = 16 * 1024 * 1024;

enum class Verb { Vec, Ping, Stats, Config, Shutdown };

const char *verbName(Verb V);
bool verbFromName(const std::string &Name, Verb &V);

/// One parsed request frame.
struct Request {
  Verb V = Verb::Ping;
  /// Client/tenant id for QoS accounting ("anonymous" when absent).
  std::string Tenant = "anonymous";
  /// Display name echoed into results (VEC only).
  std::string Name;
  /// Run differential validation (VEC only).
  bool Validate = true;
  /// Per-request deadline override in ms; 0 uses the daemon default.
  unsigned DeadlineMs = 0;
  std::string Body;
};

/// One response frame.
struct Response {
  int Code = 200;
  /// Job-level outcome: "succeeded", "degraded", "failed", ... (matches
  /// jobStatusName), or "ok" for non-VEC verbs.
  std::string Status = "ok";
  /// errorClassName of the failure ("none" otherwise).
  std::string ErrorClass = "none";
  /// Which cache tier served a VEC result: "memory", "disk", or "none".
  std::string CacheTier = "none";
  unsigned Attempts = 1;
  /// Which shard executed the request (VEC only).
  unsigned Shard = 0;
  /// Single-line diagnostic (newlines are escaped on the wire).
  std::string Message;
  std::string Body;
  /// The result's VectorizeStats (`stats` header): sent by sandbox
  /// workers so what the daemon caches matches an in-process result.
  std::optional<VectorizeStats> Stats;
};

std::string serializeRequest(const Request &R);
std::string serializeResponse(const Response &R);

/// Replaces \n and \r with visible escapes so any string can ride in a
/// header value; inverse of unescapeHeaderValue.
std::string escapeHeaderValue(const std::string &Value);
std::string unescapeHeaderValue(const std::string &Value);

/// Incremental frame parser: feed() bytes as they arrive, poll next().
/// One reader per connection direction; a Malformed verdict poisons the
/// reader (the connection must be torn down).
class FrameReader {
public:
  enum class Result { NeedMore, Ready, Malformed };

  FrameReader() = default;
  /// A reader with a custom body-size ceiling (clamped to >= 1; the
  /// header ceiling stays MaxHeaderBytes).
  explicit FrameReader(size_t MaxFrameBytes)
      : BodyLimit(MaxFrameBytes ? MaxFrameBytes : 1) {}

  /// A raw parsed frame: the start line split at spaces, the header list
  /// in arrival order, and the body.
  struct Frame {
    std::vector<std::string> StartWords;
    std::vector<std::pair<std::string, std::string>> Headers;
    std::string Body;

    /// Last value of \p Name (lowercase), or \p Default.
    std::string header(const std::string &Name,
                       const std::string &Default = "") const;
  };

  void feed(const char *Data, size_t Len) { Buffer.append(Data, Len); }
  void feed(const std::string &Data) { Buffer.append(Data); }

  /// Extracts the next complete frame from the buffer. On Malformed,
  /// \p Error says what was wrong and the reader refuses further frames.
  Result next(Frame &Out, std::string &Error);

  /// Bytes buffered but not yet consumed by a complete frame.
  size_t pendingBytes() const { return Buffer.size(); }

  /// The body-size ceiling in force for this reader.
  size_t maxBodyBytes() const { return BodyLimit; }

private:
  std::string Buffer;
  size_t BodyLimit = MaxBodyBytes;
  bool Poisoned = false;
};

/// Interprets a raw frame as a request. Returns false (with \p Error set)
/// on an unknown verb or invalid header values — the caller answers 400.
bool requestFromFrame(const FrameReader::Frame &F, Request &Out,
                      std::string &Error);

/// Interprets a raw frame as a response (client side).
bool responseFromFrame(const FrameReader::Frame &F, Response &Out,
                       std::string &Error);

/// The canned 400 frame for a malformed request.
std::string badRequestResponse(const std::string &Error);

/// The job a VEC request asks for; \p DefaultDeadlineMs (0 = none)
/// applies when the request names no deadline.
JobSpec jobSpecFromRequest(const Request &R, unsigned DefaultDeadlineMs = 0);
/// The VEC response for \p R, without Stats and with shard 0.
Response responseFromResult(JobResult R);
/// The inverse pair, for forwarding a miss to a sandbox worker: only the
/// wire's fields survive, and serving flags stay clear.
Request requestFromJobSpec(const JobSpec &Spec);
JobResult resultFromResponse(Response R);

} // namespace daemon
} // namespace mvec

#endif // MVEC_DAEMON_PROTOCOL_H

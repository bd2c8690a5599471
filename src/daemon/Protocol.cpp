//===- Protocol.cpp - mvecd wire protocol -----------------------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "daemon/Protocol.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <sstream>

using namespace mvec;
using namespace mvec::daemon;

const char *mvec::daemon::verbName(Verb V) {
  switch (V) {
  case Verb::Vec:
    return "VEC";
  case Verb::Ping:
    return "PING";
  case Verb::Stats:
    return "STATS";
  case Verb::Config:
    return "CONFIG";
  case Verb::Shutdown:
    return "SHUTDOWN";
  }
  return "PING";
}

bool mvec::daemon::verbFromName(const std::string &Name, Verb &V) {
  for (Verb Candidate : {Verb::Vec, Verb::Ping, Verb::Stats, Verb::Config,
                         Verb::Shutdown}) {
    if (Name == verbName(Candidate)) {
      V = Candidate;
      return true;
    }
  }
  return false;
}

std::string mvec::daemon::escapeHeaderValue(const std::string &Value) {
  std::string Out;
  Out.reserve(Value.size());
  for (char C : Value) {
    if (C == '\\')
      Out += "\\\\";
    else if (C == '\n')
      Out += "\\n";
    else if (C == '\r')
      Out += "\\r";
    else
      Out += C;
  }
  return Out;
}

std::string mvec::daemon::unescapeHeaderValue(const std::string &Value) {
  std::string Out;
  Out.reserve(Value.size());
  for (size_t I = 0; I != Value.size(); ++I) {
    if (Value[I] != '\\' || I + 1 == Value.size()) {
      Out += Value[I];
      continue;
    }
    char Next = Value[++I];
    if (Next == 'n')
      Out += '\n';
    else if (Next == 'r')
      Out += '\r';
    else
      Out += Next;
  }
  return Out;
}

namespace {

void appendHeader(std::string &Out, const char *Name,
                  const std::string &Value) {
  Out += Name;
  Out += ": ";
  Out += escapeHeaderValue(Value);
  Out += '\n';
}

JobStatus jobStatusFromName(const std::string &Name) {
  for (JobStatus S : {JobStatus::Succeeded, JobStatus::Failed,
                      JobStatus::TimedOut, JobStatus::Cancelled,
                      JobStatus::Degraded})
    if (Name == jobStatusName(S))
      return S;
  return JobStatus::Failed;
}

ErrorClass errorClassFromName(const std::string &Name) {
  for (ErrorClass C : {ErrorClass::None, ErrorClass::Input,
                       ErrorClass::Resource, ErrorClass::Deadline,
                       ErrorClass::Internal})
    if (Name == errorClassName(C))
      return C;
  return ErrorClass::Internal;
}

} // namespace

std::string mvec::daemon::serializeRequest(const Request &R) {
  std::string Out = "MVEC/1 ";
  Out += verbName(R.V);
  Out += '\n';
  if (!R.Tenant.empty() && R.Tenant != "anonymous")
    appendHeader(Out, "tenant", R.Tenant);
  if (!R.Name.empty())
    appendHeader(Out, "name", R.Name);
  if (R.V == Verb::Vec)
    appendHeader(Out, "validate", R.Validate ? "1" : "0");
  if (R.DeadlineMs != 0)
    appendHeader(Out, "deadline-ms", std::to_string(R.DeadlineMs));
  appendHeader(Out, "content-length", std::to_string(R.Body.size()));
  Out += '\n';
  Out += R.Body;
  return Out;
}

std::string mvec::daemon::serializeResponse(const Response &R) {
  std::string Out = "MVEC/1 ";
  Out += std::to_string(R.Code);
  Out += R.Code == 200 ? " ok" : " bad-request";
  Out += '\n';
  appendHeader(Out, "status", R.Status);
  appendHeader(Out, "error-class", R.ErrorClass);
  appendHeader(Out, "cache", R.CacheTier);
  appendHeader(Out, "attempts", std::to_string(R.Attempts));
  appendHeader(Out, "shard", std::to_string(R.Shard));
  if (!R.Message.empty())
    appendHeader(Out, "message", R.Message);
  if (R.Stats)
    appendHeader(Out, "stats", statsText(*R.Stats));
  appendHeader(Out, "content-length", std::to_string(R.Body.size()));
  Out += '\n';
  Out += R.Body;
  return Out;
}

std::string
FrameReader::Frame::header(const std::string &Name,
                           const std::string &Default) const {
  for (auto It = Headers.rbegin(); It != Headers.rend(); ++It)
    if (It->first == Name)
      return It->second;
  return Default;
}

FrameReader::Result FrameReader::next(Frame &Out, std::string &Error) {
  if (Poisoned) {
    Error = "reader poisoned by an earlier malformed frame";
    return Result::Malformed;
  }
  // Locate the end of the header block first; the frame is not parsed at
  // all until the blank line has arrived.
  size_t HeaderEnd = Buffer.find("\n\n");
  if (HeaderEnd == std::string::npos) {
    if (Buffer.size() > MaxHeaderBytes) {
      Poisoned = true;
      Error = "header block exceeds " + std::to_string(MaxHeaderBytes) +
              " bytes";
      return Result::Malformed;
    }
    return Result::NeedMore;
  }
  if (HeaderEnd > MaxHeaderBytes) {
    Poisoned = true;
    Error = "header block exceeds " + std::to_string(MaxHeaderBytes) +
            " bytes";
    return Result::Malformed;
  }

  // Parse the start line + headers from the block [0, HeaderEnd).
  Frame F;
  size_t LineStart = 0;
  bool First = true;
  uint64_t ContentLength = 0;
  while (LineStart <= HeaderEnd) {
    size_t LineEnd = Buffer.find('\n', LineStart);
    std::string Line = Buffer.substr(LineStart, LineEnd - LineStart);
    LineStart = LineEnd + 1;
    if (First) {
      First = false;
      size_t Pos = 0;
      while (Pos < Line.size()) {
        size_t Space = Line.find(' ', Pos);
        if (Space == std::string::npos)
          Space = Line.size();
        if (Space > Pos)
          F.StartWords.push_back(Line.substr(Pos, Space - Pos));
        Pos = Space + 1;
      }
      if (F.StartWords.empty() || F.StartWords[0] != "MVEC/1") {
        Poisoned = true;
        Error = "start line is not 'MVEC/1 ...'";
        return Result::Malformed;
      }
      continue;
    }
    if (Line.empty())
      break; // The blank line: header block done.
    size_t Colon = Line.find(": ");
    if (Colon == std::string::npos || Colon == 0) {
      Poisoned = true;
      Error = "malformed header line '" + Line + "'";
      return Result::Malformed;
    }
    std::string Name = Line.substr(0, Colon);
    std::transform(Name.begin(), Name.end(), Name.begin(),
                   [](unsigned char C) { return std::tolower(C); });
    F.Headers.emplace_back(std::move(Name),
                           unescapeHeaderValue(Line.substr(Colon + 2)));
  }

  std::string LenStr = F.header("content-length", "0");
  char *End = nullptr;
  ContentLength = std::strtoull(LenStr.c_str(), &End, 10);
  if (End == LenStr.c_str() || *End != '\0') {
    Poisoned = true;
    Error = "invalid content-length '" + LenStr + "'";
    return Result::Malformed;
  }
  if (ContentLength > BodyLimit) {
    Poisoned = true;
    Error = "body exceeds " + std::to_string(BodyLimit) + " bytes";
    return Result::Malformed;
  }

  size_t BodyStart = HeaderEnd + 2;
  if (Buffer.size() - BodyStart < ContentLength)
    return Result::NeedMore;

  F.Body = Buffer.substr(BodyStart, ContentLength);
  Buffer.erase(0, BodyStart + ContentLength);
  Out = std::move(F);
  return Result::Ready;
}

bool mvec::daemon::requestFromFrame(const FrameReader::Frame &F, Request &Out,
                                    std::string &Error) {
  if (F.StartWords.size() != 2) {
    Error = "request start line must be 'MVEC/1 <verb>'";
    return false;
  }
  Request R;
  if (!verbFromName(F.StartWords[1], R.V)) {
    Error = "unknown verb '" + F.StartWords[1] + "'";
    return false;
  }
  std::string Tenant = F.header("tenant", "anonymous");
  if (!Tenant.empty())
    R.Tenant = std::move(Tenant);
  R.Name = F.header("name");
  std::string Validate = F.header("validate", "1");
  if (Validate != "0" && Validate != "1") {
    Error = "validate must be 0 or 1";
    return false;
  }
  R.Validate = Validate == "1";
  std::string DeadlineStr = F.header("deadline-ms", "0");
  char *End = nullptr;
  uint64_t Deadline = std::strtoull(DeadlineStr.c_str(), &End, 10);
  if (End == DeadlineStr.c_str() || *End != '\0' ||
      Deadline > 24ull * 3600 * 1000) {
    Error = "invalid deadline-ms '" + DeadlineStr + "'";
    return false;
  }
  R.DeadlineMs = static_cast<unsigned>(Deadline);
  R.Body = F.Body;
  Out = std::move(R);
  return true;
}

bool mvec::daemon::responseFromFrame(const FrameReader::Frame &F,
                                     Response &Out, std::string &Error) {
  if (F.StartWords.size() < 2) {
    Error = "response start line must be 'MVEC/1 <code> <reason>'";
    return false;
  }
  Response R;
  char *End = nullptr;
  long Code = std::strtol(F.StartWords[1].c_str(), &End, 10);
  if (End == F.StartWords[1].c_str() || *End != '\0' || Code < 100 ||
      Code > 599) {
    Error = "invalid response code '" + F.StartWords[1] + "'";
    return false;
  }
  R.Code = static_cast<int>(Code);
  R.Status = F.header("status", "ok");
  R.ErrorClass = F.header("error-class", "none");
  R.CacheTier = F.header("cache", "none");
  R.Attempts =
      static_cast<unsigned>(std::strtoul(F.header("attempts", "1").c_str(),
                                         nullptr, 10));
  R.Shard = static_cast<unsigned>(
      std::strtoul(F.header("shard", "0").c_str(), nullptr, 10));
  R.Message = F.header("message");
  std::string Stats = F.header("stats");
  if (!Stats.empty()) {
    std::istringstream In(Stats);
    if (!readStats(In, R.Stats.emplace()) || !(In >> std::ws).eof()) {
      Error = "invalid stats '" + Stats + "'";
      return false;
    }
  }
  R.Body = F.Body;
  Out = std::move(R);
  return true;
}

std::string mvec::daemon::badRequestResponse(const std::string &Error) {
  Response R;
  R.Code = 400;
  R.Status = "bad-request";
  R.Message = Error;
  return serializeResponse(R);
}

JobSpec mvec::daemon::jobSpecFromRequest(const Request &R,
                                         unsigned DefaultDeadlineMs) {
  JobSpec Spec;
  Spec.Name = R.Name.empty() ? "request" : R.Name;
  Spec.Source = R.Body;
  Spec.Validate = R.Validate;
  Spec.Deadline =
      std::chrono::milliseconds(R.DeadlineMs ? R.DeadlineMs : DefaultDeadlineMs);
  return Spec;
}

Response mvec::daemon::responseFromResult(JobResult R) {
  Response Resp;
  Resp.Status = jobStatusName(R.Status);
  Resp.ErrorClass = errorClassName(R.Class);
  Resp.CacheTier = R.DiskHit ? "disk" : (R.CacheHit ? "memory" : "none");
  Resp.Attempts = R.Attempts;
  Resp.Message = std::move(R.Message);
  Resp.Body = std::move(R.VectorizedSource);
  return Resp;
}

Request mvec::daemon::requestFromJobSpec(const JobSpec &Spec) {
  Request R;
  R.V = Verb::Vec;
  R.Name = Spec.Name;
  R.Validate = Spec.Validate;
  R.DeadlineMs = static_cast<unsigned>(Spec.Deadline.count());
  R.Body = Spec.Source;
  return R;
}

JobResult mvec::daemon::resultFromResponse(Response R) {
  JobResult Result;
  Result.Status = jobStatusFromName(R.Status);
  Result.Class = errorClassFromName(R.ErrorClass);
  Result.Attempts = R.Attempts;
  Result.Message = std::move(R.Message);
  Result.VectorizedSource = std::move(R.Body);
  if (R.Stats)
    Result.Stats = *R.Stats;
  return Result;
}

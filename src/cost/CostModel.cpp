//===- CostModel.cpp - Profitability cost model ---------------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "cost/CostModel.h"

#include "support/ContentHash.h"
#include "support/Io.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace mvec {
namespace cost {

namespace {

/// The coefficient table, in canonical (serialization and checksum)
/// order. One row per double member so serialize/parse/checksum can never
/// drift from each other.
struct CoeffRow {
  const char *Key;
  double CostProfile::*Member;
  /// Coefficients must be positive; the assumed trip count additionally
  /// must be at least 1 (a loop that runs).
  double Min;
};

const CoeffRow Coeffs[] = {
    {"loop_iter_ns", &CostProfile::LoopIterNs, 0.0},
    {"scalar_op_ns", &CostProfile::ScalarOpNs, 0.0},
    {"vector_stmt_ns", &CostProfile::VectorStmtNs, 0.0},
    {"elementwise_ns", &CostProfile::ElementwiseNs, 0.0},
    {"fused_mul_add_ns", &CostProfile::FusedMulAddNs, 0.0},
    {"mat_mul_ns", &CostProfile::MatMulNs, 0.0},
    {"reduce_ns", &CostProfile::ReduceNs, 0.0},
    {"repmat_ns", &CostProfile::RepmatNs, 0.0},
    {"transpose_ns", &CostProfile::TransposeNs, 0.0},
    {"assumed_trip_count", &CostProfile::AssumedTripCount, 1.0},
};

/// %.17g survives a double -> text -> double round trip exactly, so the
/// checksum of a parsed profile always matches the checksum of the
/// profile that was serialized.
std::string numberText(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

/// The checksummed payload: every field except the checksum itself, in
/// fixed order, with an unambiguous separator.
std::string canonicalPayload(const CostProfile &P) {
  std::string S = "mvec_cost_profile;v=" + std::to_string(P.Version) +
                  ";simd=" + P.SimdLevel +
                  ";calibrated=" + (P.Calibrated ? "1" : "0");
  for (const CoeffRow &Row : Coeffs) {
    S += ';';
    S += Row.Key;
    S += '=';
    S += numberText(P.*(Row.Member));
  }
  return S;
}

/// Finds `"Key"` at the top level of \p Json (no nesting awareness needed:
/// the schema never repeats a key) and returns the offset just past the
/// following ':', or npos.
size_t valueOffset(const std::string &Json, const std::string &Key) {
  std::string Needle = "\"" + Key + "\"";
  size_t At = Json.find(Needle);
  if (At == std::string::npos)
    return std::string::npos;
  size_t Colon = Json.find(':', At + Needle.size());
  if (Colon == std::string::npos)
    return std::string::npos;
  return Colon + 1;
}

bool findNumber(const std::string &Json, const std::string &Key,
                double &Out) {
  size_t At = valueOffset(Json, Key);
  if (At == std::string::npos)
    return false;
  const char *Start = Json.c_str() + At;
  char *End = nullptr;
  double V = std::strtod(Start, &End);
  if (End == Start)
    return false;
  Out = V;
  return true;
}

bool findString(const std::string &Json, const std::string &Key,
                std::string &Out) {
  size_t At = valueOffset(Json, Key);
  if (At == std::string::npos)
    return false;
  size_t Open = Json.find('"', At);
  if (Open == std::string::npos)
    return false;
  size_t Close = Json.find('"', Open + 1);
  if (Close == std::string::npos)
    return false;
  Out = Json.substr(Open + 1, Close - Open - 1);
  return true;
}

bool findBool(const std::string &Json, const std::string &Key, bool &Out) {
  size_t At = valueOffset(Json, Key);
  if (At == std::string::npos)
    return false;
  while (At < Json.size() && (Json[At] == ' ' || Json[At] == '\n' ||
                              Json[At] == '\t' || Json[At] == '\r'))
    ++At;
  if (Json.compare(At, 4, "true") == 0) {
    Out = true;
    return true;
  }
  if (Json.compare(At, 5, "false") == 0) {
    Out = false;
    return true;
  }
  return false;
}

} // namespace

uint64_t CostProfile::checksum() const {
  return fnv1aHash(canonicalPayload(*this));
}

uint64_t CostProfile::fingerprint() const {
  return fnv1aMix(checksum(), fnv1aHash(SimdLevel));
}

CostProfile defaultCostProfile() { return CostProfile(); }

std::string serializeCostProfile(const CostProfile &P) {
  std::ostringstream Out;
  Out << "{\n"
      << "  \"mvec_cost_profile\": " << P.Version << ",\n"
      << "  \"simd_level\": \"" << P.SimdLevel << "\",\n"
      << "  \"calibrated\": " << (P.Calibrated ? "true" : "false") << ",\n"
      << "  \"coefficients\": {\n";
  size_t N = sizeof(Coeffs) / sizeof(Coeffs[0]);
  for (size_t I = 0; I != N; ++I)
    Out << "    \"" << Coeffs[I].Key << "\": " << numberText(P.*(Coeffs[I].Member))
        << (I + 1 == N ? "\n" : ",\n");
  Out << "  },\n"
      << "  \"checksum\": \"" << contentHexKey(P.checksum()) << "\"\n"
      << "}\n";
  return Out.str();
}

bool parseCostProfile(const std::string &Json, CostProfile &Out,
                      std::string &Error) {
  CostProfile P;

  double Version = 0;
  if (!findNumber(Json, "mvec_cost_profile", Version)) {
    Error = "missing \"mvec_cost_profile\" version marker";
    return false;
  }
  if (Version != CostProfile::CurrentVersion) {
    Error = "version skew: profile is v" + numberText(Version) +
            ", this build reads v" +
            std::to_string(CostProfile::CurrentVersion);
    return false;
  }
  P.Version = CostProfile::CurrentVersion;

  if (!findString(Json, "simd_level", P.SimdLevel) || P.SimdLevel.empty()) {
    Error = "missing or empty \"simd_level\"";
    return false;
  }
  if (!findBool(Json, "calibrated", P.Calibrated)) {
    Error = "missing \"calibrated\"";
    return false;
  }

  for (const CoeffRow &Row : Coeffs) {
    double V = 0;
    if (!findNumber(Json, Row.Key, V)) {
      Error = std::string("missing coefficient \"") + Row.Key + "\"";
      return false;
    }
    if (!std::isfinite(V) || V <= Row.Min) {
      Error = std::string("coefficient \"") + Row.Key +
              "\" out of range: " + numberText(V);
      return false;
    }
    P.*(Row.Member) = V;
  }

  std::string ChecksumHex;
  if (!findString(Json, "checksum", ChecksumHex)) {
    Error = "missing \"checksum\"";
    return false;
  }
  uint64_t Stored = 0;
  if (!parseContentHexKey(ChecksumHex, Stored)) {
    Error = "malformed checksum \"" + ChecksumHex + "\"";
    return false;
  }
  if (Stored != P.checksum()) {
    Error = "checksum mismatch: stored " + ChecksumHex + ", computed " +
            contentHexKey(P.checksum()) + " (torn or hand-edited profile)";
    return false;
  }

  Out = P;
  return true;
}

CostProfile loadCostProfileOrDefault(const std::string &Path,
                                     std::string &Diag) {
  Diag.clear();
  if (Path.empty())
    return defaultCostProfile();

  std::string Json;
  if (!io::readFile(Path, Json)) {
    Diag = "cost profile '" + Path + "' unreadable; using built-in defaults";
    return defaultCostProfile();
  }

  CostProfile P;
  std::string Error;
  if (!parseCostProfile(Json, P, Error)) {
    Diag = "cost profile '" + Path + "' rejected (" + Error +
           "); using built-in defaults";
    return defaultCostProfile();
  }
  return P;
}

CostModel::CostModel(CostProfile ProfileIn)
    : Profile(std::move(ProfileIn)), Fingerprint(Profile.fingerprint()) {}

const CostModel &builtinCostModel() {
  static const CostModel Model{defaultCostProfile()};
  return Model;
}

} // namespace cost
} // namespace mvec

//===- Corpus.cpp - On-disk finding corpus -----------------------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Corpus.h"

#include "support/Io.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace mvec;
using namespace mvec::fuzz;

namespace fs = std::filesystem;

namespace {

/// Parses "key=value" pairs out of a "% fuzz-finding:" header line.
std::string headerValue(const std::string &Line, const std::string &Key) {
  size_t Pos = Line.find(Key + "=");
  if (Pos == std::string::npos)
    return std::string();
  Pos += Key.size() + 1;
  size_t End = Pos;
  while (End != Line.size() &&
         !std::isspace(static_cast<unsigned char>(Line[End])))
    ++End;
  return Line.substr(Pos, End - Pos);
}

FindingKind kindFromName(const std::string &Name) {
  if (Name == "crash")
    return FindingKind::Crash;
  if (Name == "transformed-run-error")
    return FindingKind::TransformedRunError;
  if (Name == "hang")
    return FindingKind::Hang;
  return FindingKind::Mismatch;
}

/// Fills the metadata fields of \p Entry from the leading comment lines
/// of its source. Unknown or absent headers leave the defaults.
void parseHeaders(CorpusEntry &Entry) {
  std::istringstream In(Entry.Source);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.rfind("% fuzz-finding:", 0) == 0) {
      Entry.Kind = kindFromName(headerValue(Line, "kind"));
      Entry.Fixed = headerValue(Line, "status") == "fixed";
      continue;
    }
    if (Line.rfind("% bucket:", 0) == 0) {
      std::string Bucket = Line.substr(std::string("% bucket:").size());
      size_t Begin = Bucket.find_first_not_of(' ');
      Entry.Bucket =
          Begin == std::string::npos ? std::string() : Bucket.substr(Begin);
      continue;
    }
    // Headers only appear at the top; the first non-header line ends the
    // scan (blank lines and other comments are allowed in between).
    if (!Line.empty() && Line[0] != '%')
      break;
  }
}

} // namespace

Corpus::Corpus(std::string Dir) : Dir(std::move(Dir)) {}

size_t Corpus::load() {
  Entries.clear();
  std::error_code EC;
  if (!fs::is_directory(Dir, EC))
    return 0;
  std::vector<fs::path> Files;
  for (const fs::directory_entry &DE : fs::directory_iterator(Dir, EC))
    if (DE.is_regular_file() && DE.path().extension() == ".m")
      Files.push_back(DE.path());
  // directory_iterator order is unspecified; sort for reproducible
  // replay reports and mutation-donor selection.
  std::sort(Files.begin(), Files.end());
  for (const fs::path &File : Files) {
    CorpusEntry Entry;
    if (!io::readFile(File.string(), Entry.Source))
      continue;
    Entry.Path = File.string();
    Entry.Name = File.stem().string();
    parseHeaders(Entry);
    Entries.push_back(std::move(Entry));
  }
  return Entries.size();
}

bool Corpus::containsBucket(const std::string &Bucket) const {
  for (const CorpusEntry &Entry : Entries)
    if (Entry.Bucket == Bucket)
      return true;
  return false;
}

std::string Corpus::slugify(const std::string &Bucket) {
  std::string Slug;
  for (char C : Bucket) {
    if (std::isalnum(static_cast<unsigned char>(C)))
      Slug += static_cast<char>(
          std::tolower(static_cast<unsigned char>(C)));
    else if (!Slug.empty() && Slug.back() != '-')
      Slug += '-';
  }
  while (!Slug.empty() && Slug.back() == '-')
    Slug.pop_back();
  if (Slug.empty())
    Slug = "finding";
  if (Slug.size() > 64)
    Slug.resize(64);
  return Slug;
}

std::string Corpus::formatEntry(const Finding &F, const std::string &Body,
                                bool Fixed) {
  std::string Out;
  Out += "% fuzz-finding: kind=";
  Out += findingKindName(F.Kind);
  Out += " status=";
  Out += Fixed ? "fixed" : "open";
  Out += '\n';
  Out += "% bucket: " + F.Bucket + '\n';
  if (!F.Family.empty())
    Out += "% family: " + F.Family + '\n';
  Out += Body;
  if (Out.empty() || Out.back() != '\n')
    Out += '\n';
  return Out;
}

std::string Corpus::add(const Finding &F, const std::string &ReducedSource) {
  if (containsBucket(F.Bucket))
    return std::string();
  std::error_code EC;
  fs::create_directories(Dir, EC);
  std::string Slug = slugify(F.Bucket);
  fs::path Path = fs::path(Dir) / (Slug + ".m");
  // A slug collision with a different bucket gets a numeric suffix.
  for (unsigned N = 2; fs::exists(Path, EC); ++N)
    Path = fs::path(Dir) / (Slug + "-" + std::to_string(N) + ".m");
  CorpusEntry Entry;
  Entry.Path = Path.string();
  Entry.Name = Path.stem().string();
  Entry.Bucket = F.Bucket;
  Entry.Kind = F.Kind;
  Entry.Fixed = false;
  Entry.Source = formatEntry(F, ReducedSource, /*Fixed=*/false);
  std::ofstream Out(Path);
  if (!Out)
    return std::string();
  Out << Entry.Source;
  Out.close();
  Entries.push_back(std::move(Entry));
  return Entries.back().Path;
}

std::vector<ReplayResult> Corpus::replay(const Oracle &O) const {
  std::vector<ReplayResult> Results;
  Results.reserve(Entries.size());
  for (const CorpusEntry &Entry : Entries) {
    ReplayResult R;
    R.Entry = &Entry;
    R.V = O.check(Entry.Source, "corpus:" + Entry.Name);
    // A fixed entry is a regression test: it must vectorize and match.
    // Rejection also counts as a regression — the stored reproducer
    // stopped being a valid program, which defeats its purpose.
    R.Regressed = Entry.Fixed && !R.V.ok();
    Results.push_back(std::move(R));
  }
  return Results;
}

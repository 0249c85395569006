#include "obs/report.hh"

#include <algorithm>
#include <cmath>

#include "obs/manifest.hh"

namespace mbavf::obs
{

namespace
{

const char *
kindName(JsonValue::Kind kind)
{
    switch (kind) {
      case JsonValue::Kind::Null: return "null";
      case JsonValue::Kind::Bool: return "bool";
      case JsonValue::Kind::Int:
      case JsonValue::Kind::Uint:
      case JsonValue::Kind::Double: return "number";
      case JsonValue::Kind::String: return "string";
      case JsonValue::Kind::Array: return "array";
      case JsonValue::Kind::Object: return "object";
    }
    return "?";
}

bool
sameShapeKind(const JsonValue &a, const JsonValue &b)
{
    if (a.isNumber() && b.isNumber())
        return true;
    return a.kind() == b.kind();
}

/** Relative difference, symmetric, safe at zero. */
double
relDiff(double a, double b)
{
    if (a == b)
        return 0.0;
    double scale = std::max(std::abs(a), std::abs(b));
    return std::abs(a - b) / scale;
}

/** {count, rate, ci_low, ci_high} objects get CI-overlap semantics. */
bool
isRateObject(const JsonValue &v)
{
    return v.isObject() && v.find("rate") && v.find("ci_low") &&
           v.find("ci_high");
}

struct Differ
{
    const DiffOptions &options;
    DiffResult result;

    void
    structural(const std::string &path, const std::string &what)
    {
        result.structuralMismatch = true;
        result.notes.push_back("structure: " + path + ": " + what);
    }

    void
    drift(const std::string &path, const std::string &what)
    {
        result.drifted = true;
        result.notes.push_back("drift: " + path + ": " + what);
    }

    void
    perf(const std::string &path, const std::string &what)
    {
        result.drifted = true;
        result.notes.push_back("perf: " + path + ": " + what);
    }

    /** Is this subtree perf/context data rather than results? */
    static bool
    timingPath(const std::string &path)
    {
        return path == "/phases" || path.rfind("/phases/", 0) == 0 ||
               path == "/env" || path.rfind("/env/", 0) == 0;
    }

    /**
     * A rate object carrying weight 0 at rate exactly 0 is a skipped
     * stratum's placeholder, not an estimate — the stratum
     * contributes nothing to the combined interval, so it is
     * compatible with any interval on the other side.
     */
    static bool
    zeroWeightRate(const JsonValue &v)
    {
        const JsonValue *weight = v.find("weight");
        return weight && weight->asDouble() == 0.0 &&
               v.find("rate")->asDouble() == 0.0;
    }

    void
    compareRate(const std::string &path, const JsonValue &a,
                const JsonValue &b)
    {
        if (zeroWeightRate(a) || zeroWeightRate(b))
            return;
        const double a_low = a.find("ci_low")->asDouble();
        const double a_high = a.find("ci_high")->asDouble();
        const double b_low = b.find("ci_low")->asDouble();
        const double b_high = b.find("ci_high")->asDouble();
        if (a_low > b_high || b_low > a_high) {
            drift(path, "rate CIs are disjoint ([" +
                            std::to_string(a_low) + ", " +
                            std::to_string(a_high) + "] vs [" +
                            std::to_string(b_low) + ", " +
                            std::to_string(b_high) + "])");
        }
    }

    void
    compare(const std::string &path, const JsonValue &a,
            const JsonValue &b)
    {
        if (!sameShapeKind(a, b)) {
            structural(path,
                       std::string(kindName(a.kind())) + " vs " +
                           kindName(b.kind()));
            return;
        }
        if (timingPath(path)) {
            // Timing subtrees: values answer only to --perf-tol,
            // which composes with --structure-only — a golden gate
            // checks shape everywhere and, when a tolerance is set,
            // phase-time drift here. compareTiming recurses on its
            // own, so fire it once at each subtree root.
            if (path == "/phases" || path == "/env")
                compareTiming(path, a, b);
            if (!options.structureOnly)
                return;
        }
        if (options.structureOnly) {
            if (a.isObject()) {
                compareObjectShape(path, a, b);
                for (const auto &[key, value] : a.members()) {
                    const JsonValue *other = b.find(key);
                    if (other)
                        compare(path + "/" + key, value, *other);
                }
            }
            // Arrays and leaves: shape checked by kind above;
            // element counts and values legitimately move run to
            // run (phases, per-window rows).
            return;
        }
        switch (a.kind()) {
          case JsonValue::Kind::Null:
            return;
          case JsonValue::Kind::Bool:
            if (a.asBool() != b.asBool())
                drift(path, "bool differs");
            return;
          case JsonValue::Kind::String:
            if (a.asString() != b.asString()) {
                drift(path, "'" + a.asString() + "' vs '" +
                                b.asString() + "'");
            }
            return;
          case JsonValue::Kind::Int:
          case JsonValue::Kind::Uint:
          case JsonValue::Kind::Double: {
            const double d = relDiff(a.asDouble(), b.asDouble());
            if (d > options.avfTol) {
                drift(path,
                      a.dump() + " vs " + b.dump() +
                          " (rel " + std::to_string(d) + ")");
            }
            return;
          }
          case JsonValue::Kind::Array: {
            if (a.items().size() != b.items().size()) {
                structural(path,
                           std::to_string(a.items().size()) +
                               " vs " +
                               std::to_string(b.items().size()) +
                               " elements");
                return;
            }
            for (std::size_t i = 0; i < a.items().size(); ++i) {
                compare(path + "/" + std::to_string(i),
                        a.items()[i], b.items()[i]);
            }
            return;
          }
          case JsonValue::Kind::Object: {
            if (isRateObject(a) && isRateObject(b)) {
                compareRate(path, a, b);
                return;
            }
            compareObjectShape(path, a, b);
            for (const auto &[key, value] : a.members()) {
                const JsonValue *other = b.find(key);
                if (other)
                    compare(path + "/" + key, value, *other);
            }
            return;
          }
        }
    }

    /**
     * Key-set symmetry only; member kinds and recursion are
     * compare()'s job so timing subtrees keep their special
     * handling on the way down.
     */
    void
    compareObjectShape(const std::string &path, const JsonValue &a,
                       const JsonValue &b)
    {
        for (const auto &[key, value] : a.members()) {
            if (!b.find(key))
                structural(path + "/" + key,
                           "missing from candidate");
        }
        for (const auto &[key, value] : b.members()) {
            if (!a.find(key))
                structural(path + "/" + key,
                           "missing from reference");
        }
    }

    /** The entry of @p list whose "name" equals @p entry's, or null. */
    static const JsonValue *
    namedEntry(const JsonValue &list, const JsonValue &entry)
    {
        const JsonValue *name = entry.find("name");
        if (!name || !name->isString())
            return nullptr;
        for (const JsonValue &candidate : list.items()) {
            const JsonValue *other = candidate.find("name");
            if (other && other->isString() &&
                other->asString() == name->asString())
                return &candidate;
        }
        return nullptr;
    }

    /** Inside /phases and /env: only seconds, only with perfTol. */
    void
    compareTiming(const std::string &path, const JsonValue &a,
                  const JsonValue &b)
    {
        if (options.perfTol < 0)
            return;
        if (a.isObject() && b.isObject()) {
            const JsonValue *name = a.find("name");
            const JsonValue *a_s = a.find("seconds");
            const JsonValue *b_s = b.find("seconds");
            if (a_s && b_s && a_s->isNumber() && b_s->isNumber()) {
                const double d =
                    relDiff(a_s->asDouble(), b_s->asDouble());
                if (d > options.perfTol) {
                    perf(path +
                             (name && name->isString()
                                  ? "(" + name->asString() + ")"
                                  : ""),
                         a_s->dump() + "s vs " + b_s->dump() +
                             "s (rel " + std::to_string(d) + ")");
                }
                return;
            }
        }
        if (a.isArray() && b.isArray()) {
            // Phase entries pair by name, never by position: a phase
            // only one side recorded has nothing to drift from, and
            // must not shift its neighbours onto unrelated phases.
            for (std::size_t i = 0; i < a.items().size(); ++i) {
                if (const JsonValue *other = namedEntry(b, a.items()[i]))
                    compareTiming(path + "/" + std::to_string(i),
                                  a.items()[i], *other);
            }
        }
        if (a.isObject() && b.isObject()) {
            for (const auto &[key, value] : a.members()) {
                const JsonValue *other = b.find(key);
                if (other)
                    compareTiming(path + "/" + key, value, *other);
            }
        }
    }
};

void
printSection(const std::string &name, const JsonValue &value,
             std::ostream &os, int depth)
{
    const std::string pad(static_cast<std::size_t>(depth) * 2, ' ');
    if (value.isObject()) {
        os << pad << name << ":\n";
        for (const auto &[key, member] : value.members())
            printSection(key, member, os, depth + 1);
    } else if (value.isArray()) {
        os << pad << name << ": [" << value.items().size()
           << " entries]\n";
    } else {
        os << pad << name << ": " << value.dump() << "\n";
    }
}

} // namespace

DiffResult
diffManifests(const JsonValue &a, const JsonValue &b,
              const DiffOptions &options)
{
    Differ differ{options, {}};
    differ.compare("", a, b);
    return differ.result;
}

void
printManifest(const JsonValue &manifest, std::ostream &os)
{
    const JsonValue *tool = manifest.find("tool");
    const JsonValue *version = manifest.find("version");
    os << "manifest";
    if (tool && tool->isString())
        os << " from " << tool->asString();
    if (version && version->isNumber())
        os << " (schema v" << version->asUint() << ")";
    os << "\n";
    for (const auto &[key, value] : manifest.members()) {
        if (key == "schema" || key == "version" || key == "tool")
            continue;
        if (key == "phases" && value.isArray()) {
            os << "phases:\n";
            for (const JsonValue &phase : value.items()) {
                const JsonValue *name = phase.find("name");
                const JsonValue *seconds = phase.find("seconds");
                const JsonValue *count = phase.find("count");
                os << "  "
                   << (name && name->isString() ? name->asString()
                                                : "?")
                   << ": "
                   << (seconds ? seconds->asDouble() : 0.0) << "s";
                if (count && count->asUint() != 1)
                    os << " over " << count->asUint() << " scopes";
                os << "\n";
            }
            continue;
        }
        printSection(key, value, os, 0);
    }
}

namespace
{

/**
 * The run identity under the determinism contract: everything in the
 * manifest except "phases" and "env", which vary between repeats of
 * the same run. dump() is deterministic (insertion-ordered keys,
 * stable number rendering), so string equality is document equality
 * for manifests written by the same tool.
 */
std::string
runIdentity(const JsonValue &manifest)
{
    JsonValue stripped = JsonValue::object();
    for (const auto &[key, value] : manifest.members()) {
        if (key == "phases" || key == "env")
            continue;
        stripped.set(key, value);
    }
    return stripped.dump();
}

} // namespace

JsonValue
mergeManifests(
    std::vector<std::pair<std::string, JsonValue>> manifests,
    std::vector<std::string> *dropped)
{
    std::sort(manifests.begin(), manifests.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    std::vector<std::pair<std::string, JsonValue>> unique;
    std::vector<std::pair<std::string, std::string>> seen;
    for (auto &[name, manifest] : manifests) {
        const std::string identity = runIdentity(manifest);
        const auto prior = std::find_if(
            seen.begin(), seen.end(), [&](const auto &entry) {
                return entry.first == identity;
            });
        if (prior != seen.end()) {
            if (dropped) {
                dropped->push_back("kept " + prior->second +
                                   ", dropped " + name +
                                   " (identical run)");
            }
            continue;
        }
        seen.emplace_back(identity, name);
        unique.emplace_back(name, std::move(manifest));
    }
    manifests = std::move(unique);
    JsonValue out = JsonValue::object();
    out.set("schema", "mbavf-trajectory");
    out.set("version", JsonValue(manifestVersion));
    JsonValue entries = JsonValue::array();
    for (auto &[name, manifest] : manifests) {
        JsonValue entry = JsonValue::object();
        entry.set("name", name);
        entry.set("manifest", std::move(manifest));
        entries.push(std::move(entry));
    }
    out.set("entries", std::move(entries));
    return out;
}

} // namespace mbavf::obs

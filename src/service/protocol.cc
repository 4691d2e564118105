#include "protocol.hh"

#include <limits>
#include <sstream>

#include "service/json.hh"
#include "util/metrics.hh"

namespace sbsim {
namespace service {

namespace {

/** Typed field extraction. Each setter returns an error string
 *  (empty = ok) so the caller can prefix the field name. */

std::string
getBool(const JsonValue &v, bool &out)
{
    if (v.kind() != JsonValue::Kind::BOOL)
        return "must be a boolean";
    out = v.boolValue();
    return "";
}

std::string
getU64(const JsonValue &v, std::uint64_t &out)
{
    if (v.kind() != JsonValue::Kind::UINT)
        return "must be a non-negative integer";
    out = v.uintValue();
    return "";
}

std::string
getU32(const JsonValue &v, std::uint32_t &out)
{
    std::uint64_t wide = 0;
    std::string err = getU64(v, wide);
    if (!err.empty())
        return err;
    if (wide > std::numeric_limits<std::uint32_t>::max())
        return "does not fit in 32 bits";
    out = static_cast<std::uint32_t>(wide);
    return "";
}

std::string
getString(const JsonValue &v, std::string &out)
{
    if (v.kind() != JsonValue::Kind::STRING)
        return "must be a string";
    out = v.stringValue();
    return "";
}

std::string
getScale(const JsonValue &v, ScaleLevel &out)
{
    std::string s;
    std::string err = getString(v, s);
    if (!err.empty())
        return err;
    if (s == "small") {
        out = ScaleLevel::SMALL;
    } else if (s == "default") {
        out = ScaleLevel::DEFAULT;
    } else if (s == "large") {
        out = ScaleLevel::LARGE;
    } else {
        return "must be small|default|large";
    }
    return "";
}

std::string
getL2Model(const JsonValue &v, std::optional<L2ModelKind> &out)
{
    std::string s;
    std::string err = getString(v, s);
    if (!err.empty())
        return err;
    std::optional<L2ModelKind> kind = parseL2Model(s);
    if (!kind)
        return "must be simulated|analytic|both";
    out = *kind;
    return "";
}

std::string
getFidelity(const JsonValue &v, Fidelity &out)
{
    std::string s;
    std::string err = getString(v, s);
    if (!err.empty())
        return err;
    std::optional<Fidelity> fidelity = parseFidelity(s);
    if (!fidelity)
        return "must be exact|sampled";
    out = *fidelity;
    return "";
}

/** Apply one "spec" member; unknown keys are an error. */
std::string
applySpecField(const std::string &key, const JsonValue &v,
               RunSpec &spec)
{
    std::string err;
    if (key == "benchmark") {
        err = getString(v, spec.benchmark);
    } else if (key == "trace") {
        err = getString(v, spec.traceFile);
    } else if (key == "scale") {
        err = getScale(v, spec.scale);
    } else if (key == "refs") {
        err = getU64(v, spec.refs);
    } else if (key == "sample") {
        err = getBool(v, spec.timeSample);
    } else if (key == "streams") {
        err = getU32(v, spec.streams);
    } else if (key == "depth") {
        err = getU32(v, spec.depth);
    } else if (key == "filter") {
        err = getBool(v, spec.unitFilter);
    } else if (key == "czone") {
        std::uint32_t bits = 0;
        err = getU32(v, bits);
        if (err.empty())
            spec.czoneBits = bits;
    } else if (key == "min_delta") {
        err = getBool(v, spec.minDelta);
    } else if (key == "partitioned") {
        err = getBool(v, spec.partitioned);
    } else if (key == "victim") {
        err = getU32(v, spec.victimEntries);
    } else if (key == "no_streams") {
        err = getBool(v, spec.noStreams);
    } else if (key == "shuffled_pages") {
        err = getBool(v, spec.shuffledPages);
    } else if (key == "page_bits") {
        err = getU32(v, spec.pageBits);
    } else if (key == "l2") {
        err = getU32(v, spec.l2KiloBytes);
    } else if (key == "l2_model") {
        err = getL2Model(v, spec.l2Model);
    } else if (key == "fidelity") {
        err = getFidelity(v, spec.fidelity);
    } else if (key == "bus") {
        err = getU32(v, spec.busCycles);
    } else {
        return "spec." + key + ": unknown field";
    }
    if (!err.empty())
        return "spec." + key + ": " + err;
    return "";
}

std::string
parseSpec(const JsonValue &v, RunSpec &spec)
{
    if (v.kind() != JsonValue::Kind::OBJECT)
        return "spec: must be an object";
    for (const auto &[key, value] : v.members()) {
        std::string err = applySpecField(key, value, spec);
        if (!err.empty())
            return err;
    }
    return validateSpec(spec);
}

std::string
parseValues(const JsonValue &v, std::vector<std::uint32_t> &out)
{
    if (v.kind() != JsonValue::Kind::ARRAY)
        return "values: must be an array of positive integers";
    out.clear();
    for (const JsonValue &item : v.array()) {
        std::uint32_t n = 0;
        std::string err = getU32(item, n);
        if (!err.empty() || n == 0)
            return "values: entries must be positive 32-bit integers";
        out.push_back(n);
    }
    return validateSweepValues(out);
}

} // namespace

RequestParse
parseRequest(std::string_view line)
{
    RequestParse result;
    JsonParseResult doc = parseJson(line);
    if (!doc.ok()) {
        result.error = doc.error;
        result.syntaxError = true;
        result.errorOffset = doc.errorOffset;
        return result;
    }
    if (doc.value.kind() != JsonValue::Kind::OBJECT) {
        result.error = "request must be a JSON object";
        return result;
    }

    Request &req = result.request;

    // The id is extracted first so even later failures echo it.
    if (const JsonValue *id = doc.value.find("id")) {
        if (id->kind() == JsonValue::Kind::STRING) {
            req.idJson = jsonQuote(id->stringValue());
        } else if (id->kind() == JsonValue::Kind::UINT) {
            req.idJson = std::to_string(id->uintValue());
        } else {
            result.error = "id: must be a string or a "
                           "non-negative integer";
            return result;
        }
    }

    const JsonValue *op = doc.value.find("op");
    if (!op || op->kind() != JsonValue::Kind::STRING) {
        result.error = "op: required string field";
        return result;
    }
    const std::string &name = op->stringValue();
    bool wants_spec = false;
    if (name == "ping") {
        req.op = RequestOp::PING;
    } else if (name == "run") {
        req.op = RequestOp::RUN;
        wants_spec = true;
    } else if (name == "sweep") {
        req.op = RequestOp::SWEEP;
        wants_spec = true;
        req.values = {1, 2, 4, 6, 8, 10}; // The CLI's default grid.
    } else if (name == "stats") {
        req.op = RequestOp::STATS;
    } else if (name == "shutdown") {
        req.op = RequestOp::SHUTDOWN;
    } else {
        result.error = "op: unknown operation \"" + name + '"';
        return result;
    }

    bool saw_spec = false;
    for (const auto &[key, value] : doc.value.members()) {
        if (key == "id" || key == "op")
            continue;
        std::string err;
        if (key == "spec" && wants_spec) {
            err = parseSpec(value, req.spec);
            saw_spec = err.empty();
        } else if (key == "values" && req.op == RequestOp::SWEEP) {
            err = parseValues(value, req.values);
        } else {
            err = key + ": not a field of op \"" + name + '"';
        }
        if (!err.empty()) {
            result.error = err;
            return result;
        }
    }
    if (wants_spec && !saw_spec) {
        result.error = "spec: required for op \"" + name + '"';
        return result;
    }
    return result;
}

std::string
errorResponse(const std::string &id_json, const std::string &error,
              std::optional<std::size_t> offset)
{
    std::string line = "{\"id\":" + id_json +
                       ",\"ok\":false,\"error\":" + jsonQuote(error);
    if (offset)
        line += ",\"offset\":" + std::to_string(*offset);
    line += "}\n";
    return line;
}

std::string
simpleResponse(const std::string &id_json, const std::string &kind)
{
    return "{\"id\":" + id_json + ",\"ok\":true,\"kind\":" +
           jsonQuote(kind) + "}\n";
}

std::string
resultResponse(const std::string &id_json, const std::string &kind,
               std::uint64_t references, const std::string &document)
{
    return "{\"id\":" + id_json + ",\"ok\":true,\"kind\":" +
           jsonQuote(kind) +
           ",\"references\":" + std::to_string(references) +
           ",\"result\":" + jsonQuote(document) + "}\n";
}

std::string
statsResponse(const std::string &id_json, const TraceCacheStats &s)
{
    std::ostringstream os;
    os << "{\"id\":" << id_json
       << ",\"ok\":true,\"kind\":\"stats\",\"trace_cache\":";
    writeTraceCacheJson(s, os);
    os << "}\n";
    return os.str();
}

} // namespace service
} // namespace sbsim

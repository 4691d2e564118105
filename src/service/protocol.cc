#include "protocol.hh"

#include <limits>
#include <sstream>

#include "service/json.hh"
#include "util/metrics.hh"

namespace sbsim {
namespace service {

namespace {

/** The text a JSON member spells for @p field: a switch takes a
 *  boolean, a number a non-negative integer, a word a string. */
std::string
specText(const SpecField &field, const JsonValue &v, std::string &text)
{
    switch (field.arg) {
      case SpecArg::SWITCH:
        if (v.kind() != JsonValue::Kind::BOOL)
            return "must be a boolean";
        text = v.boolValue() ? "true" : "false";
        break;
      case SpecArg::NUMBER:
        if (v.kind() != JsonValue::Kind::UINT)
            return "must be a non-negative integer";
        text = std::to_string(v.uintValue());
        break;
      case SpecArg::WORD:
        if (v.kind() != JsonValue::Kind::STRING)
            return "must be a string";
        text = v.stringValue();
        break;
    }
    return "";
}

std::string
parseSpec(const JsonValue &v, RunSpec &spec)
{
    if (v.kind() != JsonValue::Kind::OBJECT)
        return "spec: must be an object";
    for (const auto &[key, value] : v.members()) {
        const SpecField *field = findSpecField(key);
        if (!field)
            return "spec." + key + ": unknown field";
        std::string text;
        std::string err = specText(*field, value, text);
        if (err.empty())
            err = field->set(spec, text);
        if (!err.empty())
            return "spec." + key + ": " + err;
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
        if (item.kind() != JsonValue::Kind::UINT || item.uintValue() == 0 ||
            item.uintValue() > std::numeric_limits<std::uint32_t>::max())
            return "values: entries must be positive 32-bit integers";
        out.push_back(static_cast<std::uint32_t>(item.uintValue()));
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
        req.values.assign(kDefaultSweepValues.begin(),
                          kDefaultSweepValues.end());
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

#include "metrics.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/logging.hh"

namespace sbsim {

std::string
jsonQuote(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out.push_back('"');
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned char>(c));
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    out.push_back('"');
    return out;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    // Integral doubles print as plain integers — %g at low precision
    // would render 100.0 as "1e+02".
    if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
        return std::to_string(static_cast<long long>(v));
    }
    // Shortest representation that round-trips: try increasing
    // precision until strtod gives the value back. Deterministic for a
    // given double, and far more readable than unconditional %.17g.
    char buf[40];
    for (int precision = 1; precision <= 17; ++precision) {
        std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    // JSON requires a leading digit ("nan"/"inf" were handled above).
    return buf;
}

std::string
csvQuote(const std::string &cell)
{
    if (cell.find_first_of(",\"\n") == std::string::npos)
        return cell;
    std::string out;
    out.reserve(cell.size() + 2);
    out.push_back('"');
    for (char c : cell) {
        if (c == '"')
            out.push_back('"');
        out.push_back(c);
    }
    out.push_back('"');
    return out;
}

void
MetricValue::writeJson(std::ostream &os) const
{
    switch (kind_) {
      case Kind::UINT:
        os << uintValue_;
        break;
      case Kind::REAL:
        os << jsonNumber(realValue_);
        break;
      case Kind::TEXT:
        os << jsonQuote(textValue_);
        break;
    }
}

std::string
MetricValue::csvCell() const
{
    switch (kind_) {
      case Kind::UINT:
        return std::to_string(uintValue_);
      case Kind::REAL: {
        std::string s = jsonNumber(realValue_);
        return s == "null" ? std::string() : s;
      }
      case Kind::TEXT:
        return textValue_;
    }
    return {};
}

MetricsSection &
MetricsRegistry::section(const std::string &name)
{
    SBSIM_ASSERT(find(name) == nullptr,
                 "duplicate metrics section: ", name);
    sections_.emplace_back(name);
    return sections_.back();
}

const MetricsSection *
MetricsRegistry::find(const std::string &name) const
{
    for (const MetricsSection &s : sections_) {
        if (s.name() == name)
            return &s;
    }
    return nullptr;
}

void
MetricsRegistry::addDistribution(const std::string &name,
                                 const BucketedDistribution &dist)
{
    MetricsSection &s = section(name);
    s.add("total", dist.total());
    for (std::size_t i = 0; i < dist.size(); ++i)
        s.add("count_" + dist.bucketLabel(i), dist.count(i));
    for (std::size_t i = 0; i < dist.size(); ++i)
        s.add("share_pct_" + dist.bucketLabel(i), dist.sharePercent(i));
}

void
MetricsRegistry::writeJsonSections(std::ostream &os) const
{
    os << '{';
    bool first_section = true;
    for (const MetricsSection &s : sections_) {
        if (!first_section)
            os << ',';
        first_section = false;
        os << jsonQuote(s.name()) << ":{";
        bool first_field = true;
        for (const auto &[field, value] : s.fields()) {
            if (!first_field)
                os << ',';
            first_field = false;
            os << jsonQuote(field) << ':';
            value.writeJson(os);
        }
        os << '}';
    }
    os << '}';
}

void
MetricsRegistry::writeJson(std::ostream &os) const
{
    os << "{\"schema\":\"streamsim-metrics\",\"schema_version\":"
       << kMetricsSchemaVersion << ",\"kind\":\"run\",\"sections\":";
    writeJsonSections(os);
    os << "}\n";
}

std::vector<std::string>
MetricsRegistry::flatFieldNames() const
{
    std::vector<std::string> out;
    for (const MetricsSection &s : sections_) {
        for (const auto &[field, value] : s.fields())
            out.push_back(s.name() + "." + field);
    }
    return out;
}

std::vector<std::string>
MetricsRegistry::flatFieldValues() const
{
    std::vector<std::string> out;
    for (const MetricsSection &s : sections_) {
        for (const auto &[field, value] : s.fields())
            out.push_back(value.csvCell());
    }
    return out;
}

} // namespace sbsim

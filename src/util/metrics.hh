/**
 * @file
 * Structured metrics export: a registry of named sections of named
 * scalar fields, serialised to stable-schema JSON (single runs) and
 * CSV (sweeps). Every experiment script used to scrape StatGroup's
 * free-form text output; the registry gives the same counters a
 * machine-readable, versioned shape instead.
 *
 * Ordering contract: sections and fields serialise in insertion
 * order, and the exporters in sim/ insert in a fixed order, so two
 * runs of the same build produce byte-identical output for identical
 * results. tools/metrics.schema.json pins the envelope;
 * tools/validate_metrics.py checks emitted documents against it.
 */

#ifndef STREAMSIM_UTIL_METRICS_HH
#define STREAMSIM_UTIL_METRICS_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "util/stats.hh"

namespace sbsim {

/**
 * Version of the emitted JSON/CSV envelope. Bump when a field is
 * renamed, removed, or changes meaning; *adding* fields is
 * backward-compatible and does not bump the version (consumers must
 * ignore unknown fields). docs/INTERNALS.md "Observability" records
 * the policy.
 */
inline constexpr std::uint32_t kMetricsSchemaVersion = 1;

/** One exported scalar: an integer, a real, or a string. */
class MetricValue
{
  public:
    enum class Kind : std::uint8_t { UINT, REAL, TEXT };

    MetricValue(std::uint64_t v) : kind_(Kind::UINT), uintValue_(v) {}
    MetricValue(double v) : kind_(Kind::REAL), realValue_(v) {}
    MetricValue(std::string v)
        : kind_(Kind::TEXT), textValue_(std::move(v))
    {}

    Kind kind() const { return kind_; }
    std::uint64_t uintValue() const { return uintValue_; }
    double realValue() const { return realValue_; }
    const std::string &textValue() const { return textValue_; }

    /** Render as a JSON value (quoted/escaped for TEXT). */
    void writeJson(std::ostream &os) const;

    /** Render as a bare CSV cell (no quoting applied here). */
    std::string csvCell() const;

  private:
    Kind kind_;
    std::uint64_t uintValue_ = 0;
    double realValue_ = 0;
    std::string textValue_;
};

/** An ordered list of named fields under one section name. */
class MetricsSection
{
  public:
    explicit MetricsSection(std::string name) : name_(std::move(name)) {}

    MetricsSection &
    add(const std::string &field, std::uint64_t value)
    {
        fields_.emplace_back(field, MetricValue(value));
        return *this;
    }

    MetricsSection &
    add(const std::string &field, double value)
    {
        fields_.emplace_back(field, MetricValue(value));
        return *this;
    }

    MetricsSection &
    add(const std::string &field, std::string value)
    {
        fields_.emplace_back(field, MetricValue(std::move(value)));
        return *this;
    }

    const std::string &name() const { return name_; }
    const std::vector<std::pair<std::string, MetricValue>> &
    fields() const
    {
        return fields_;
    }

  private:
    std::string name_;
    std::vector<std::pair<std::string, MetricValue>> fields_;
};

/**
 * An ordered collection of sections. The registry itself is
 * shape-agnostic; the converters in sim/ (runMetrics, sweepMetrics,
 * l2StudyMetrics) define which sections exist and in what order.
 *
 * Thread contract: deliberately unsynchronised. A registry is built
 * and serialised by exactly one thread — each sweep job constructs
 * its own from its own RunOutput after the parallel phase hands the
 * result back — so it carries no capability and must never be shared
 * across workers (the thread-safety wall has nothing to check here by
 * design; sharing one would be a bug at the call site, not in this
 * class).
 */
class MetricsRegistry
{
  public:
    /** Append a new section and return it for field insertion. */
    MetricsSection &section(const std::string &name);

    /** Find an existing section, or nullptr. */
    const MetricsSection *find(const std::string &name) const;

    const std::vector<MetricsSection> &sections() const
    {
        return sections_;
    }

    /**
     * Import @p dist as a section named @p name: per-bucket counts
     * ("count_<label>") and shares ("share_pct_<label>"), plus the
     * total weight.
     */
    void addDistribution(const std::string &name,
                         const BucketedDistribution &dist);

    /**
     * Serialise as one JSON object:
     *   {"schema": "...", "schema_version": N,
     *    "sections": {"<name>": {"<field>": value, ...}, ...}}
     * Key order is insertion order; output is deterministic.
     */
    void writeJson(std::ostream &os) const;

    /** The section bodies only, for embedding in a larger document. */
    void writeJsonSections(std::ostream &os) const;

    /** Flattened "section.field" names, in serialisation order. */
    std::vector<std::string> flatFieldNames() const;

    /** Values in the same order as flatFieldNames(). */
    std::vector<std::string> flatFieldValues() const;

  private:
    std::vector<MetricsSection> sections_;
};

/** Escape and double-quote @p s as a JSON string literal. */
std::string jsonQuote(const std::string &s);

/**
 * Deterministic JSON number rendering for doubles: shortest
 * round-trippable decimal form; non-finite values become null (JSON
 * has no NaN/Inf).
 */
std::string jsonNumber(double v);

/** RFC-4180-style CSV cell quoting (only when the cell needs it). */
std::string csvQuote(const std::string &cell);

} // namespace sbsim

#endif // STREAMSIM_UTIL_METRICS_HH

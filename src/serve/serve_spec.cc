#include "serve/serve_spec.hh"

#include <cmath>
#include <sstream>

#include "app/config_parser.hh"
#include "app/scenario.hh"
#include "sim/atomic_file.hh"
#include "sim/logging.hh"
#include "soc/soc_presets.hh"

namespace cohmeleon::serve
{

namespace
{

// The scanner and typed value parsers are the shared config plumbing
// in config_parser.hh; their "line N: ..." diagnostics gain the
// "serve spec " prefix via the catch-rethrow in parseServeSpecString.
using app::lineFatal;
using app::parseDoubleAt;
using app::parseU32At;
using app::parseU64At;
using app::splitList;
using app::trimText;

std::string
formatDouble(double v)
{
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
}

} // namespace

bool
ServeSpec::operator==(const ServeSpec &o) const
{
    return name == o.name && soc == o.soc && requests == o.requests &&
           threads == o.threads && swapInterval == o.swapInterval &&
           trainIterations == o.trainIterations &&
           trainShards == o.trainShards && merge == o.merge &&
           explore == o.explore && model == o.model &&
           weights.exec == o.weights.exec &&
           weights.comm == o.weights.comm &&
           weights.mem == o.weights.mem && tenants == o.tenants &&
           arrivalRate == o.arrivalRate && seed == o.seed &&
           trainSeed == o.trainSeed && agentSeed == o.agentSeed &&
           loadState == o.loadState && saveState == o.saveState &&
           decisionLog == o.decisionLog;
}

std::string
checkTenantSource(const std::string &source)
{
    if (source == "random")
        return "";
    for (const std::string &n : app::figureAppNames())
        if (n == source)
            return "";
    std::string known = "random";
    for (const std::string &n : app::figureAppNames())
        known += ", " + n;
    return "unknown tenant source '" + source + "' (known: " + known +
           ")";
}

void
labelTenants(ServeSpec &spec)
{
    for (std::size_t i = 0; i < spec.tenants.size(); ++i) {
        std::string label = "t";
        label += std::to_string(i);
        label += '-';
        label += spec.tenants[i].source;
        spec.tenants[i].label = std::move(label);
    }
}

void
validateServeSpec(const ServeSpec &spec)
{
    // The caps keep a typo'd count from sizing an allocation (the
    // request trace is reserved up front).
    constexpr std::uint64_t kMaxRequests = 100'000'000;
    constexpr unsigned kMaxTraining = 100'000;
    fatalIf(!soc::isKnownSocName(spec.soc), "serve spec: unknown SoC '",
            spec.soc, "' (known: ", soc::knownSocNamesText(), ")");
    fatalIf(spec.requests == 0, "serve spec: requests must be > 0");
    fatalIf(spec.requests > kMaxRequests,
            "serve spec: requests must be <= ", kMaxRequests, ", got ",
            spec.requests);
    fatalIf(spec.threads == 0, "serve spec: threads must be > 0");
    fatalIf(spec.threads > 256,
            "serve spec: threads must be <= 256, got ", spec.threads);
    fatalIf(spec.swapInterval == 0,
            "serve spec: swap-interval must be > 0");
    fatalIf(spec.swapInterval > kMaxRequests,
            "serve spec: swap-interval must be <= ", kMaxRequests,
            ", got ", spec.swapInterval);
    fatalIf(spec.trainIterations == 0, "serve spec: train must be > 0");
    fatalIf(spec.trainIterations > kMaxTraining,
            "serve spec: train must be <= ", kMaxTraining, ", got ",
            spec.trainIterations);
    fatalIf(spec.trainShards == 0, "serve spec: shards must be > 0");
    fatalIf(spec.trainShards > kMaxTraining,
            "serve spec: shards must be <= ", kMaxTraining, ", got ",
            spec.trainShards);
    fatalIf(spec.tenants.empty(),
            "serve spec: the tenant mix must not be empty");
    for (const TenantSpec &t : spec.tenants) {
        const std::string diag = checkTenantSource(t.source);
        fatalIf(!diag.empty(), "serve spec: ", diag);
        fatalIf(!(t.weight > 0.0) || !std::isfinite(t.weight),
                "serve spec: tenant weight for '", t.source,
                "' must be a positive finite number");
    }
    fatalIf(!(spec.arrivalRate >= 0.0) || spec.arrivalRate > 1e9,
            "serve spec: arrival-rate must be a number in [0, 1e9]");
}

void
ServeSpecBuilder::apply(const app::ConfigLine &l)
{
    const unsigned no = l.no;
    const std::string &key = l.key;
    const std::string &value = l.value;

    if (key == "serve") {
        if (value.empty())
            lineFatal(no, "serve needs a name");
        spec_.name = value;
    } else if (key == "soc") {
        if (!soc::isKnownSocName(value))
            lineFatal(no, "unknown SoC '" + value + "' (known: " +
                              soc::knownSocNamesText() + ")");
        spec_.soc = value;
    } else if (key == "requests") {
        spec_.requests = parseU64At(value, no);
    } else if (key == "threads") {
        spec_.threads = parseU32At(value, no);
    } else if (key == "swap-interval") {
        spec_.swapInterval = parseU64At(value, no);
    } else if (key == "train") {
        spec_.trainIterations = parseU32At(value, no);
    } else if (key == "shards") {
        spec_.trainShards = parseU32At(value, no);
    } else if (key == "merge") {
        const std::string diag = rl::checkMergeSpecText(value);
        if (!diag.empty())
            lineFatal(no, diag);
        spec_.merge = rl::mergeSpecFromString(value);
    } else if (key == "explore") {
        const std::string diag = rl::checkExploreSpecText(value);
        if (!diag.empty())
            lineFatal(no, diag);
        spec_.explore = rl::exploreSpecFromString(value);
    } else if (key == "model") {
        const std::string diag = rl::checkModelSpecText(value);
        if (!diag.empty())
            lineFatal(no, diag);
        spec_.model = rl::modelSpecFromString(value);
    } else if (key == "reward-weights") {
        const std::vector<std::string> parts = splitList(value, ',');
        if (parts.size() != 3)
            lineFatal(no, "reward-weights needs three values "
                          "(exec, comm, mem), got " +
                              std::to_string(parts.size()));
        spec_.weights.exec = parseDoubleAt(parts[0], no);
        spec_.weights.comm = parseDoubleAt(parts[1], no);
        spec_.weights.mem = parseDoubleAt(parts[2], no);
    } else if (key == "tenants") {
        spec_.tenants.clear();
        for (const std::string &part : splitList(value, ',')) {
            const std::string src = trimText(part);
            const std::string diag = checkTenantSource(src);
            if (!diag.empty())
                lineFatal(no, diag);
            TenantSpec t;
            t.source = src;
            spec_.tenants.push_back(std::move(t));
        }
        if (spec_.tenants.empty())
            lineFatal(no, "tenants needs at least one source");
    } else if (key == "tenant-weights") {
        weights_.clear();
        weightsLine_ = no;
        for (const std::string &part : splitList(value, ','))
            weights_.push_back(parseDoubleAt(part, no));
    } else if (key == "arrival-rate") {
        spec_.arrivalRate = parseDoubleAt(value, no);
    } else if (key == "seed") {
        spec_.seed = parseU64At(value, no);
    } else if (key == "train-seed") {
        spec_.trainSeed = parseU64At(value, no);
    } else if (key == "agent-seed") {
        spec_.agentSeed = parseU64At(value, no);
    } else if (key == "load-state") {
        spec_.loadState = value;
    } else if (key == "save-state") {
        spec_.saveState = value;
    } else if (key == "decision-log") {
        spec_.decisionLog = value;
    } else {
        lineFatal(no, "unknown serve key '" + key + "'");
    }
}

ServeSpec
ServeSpecBuilder::build() const
{
    ServeSpec spec = spec_;
    if (!weights_.empty()) {
        if (weights_.size() != spec.tenants.size())
            lineFatal(weightsLine_,
                      "tenant-weights has " +
                          std::to_string(weights_.size()) +
                          " entries for " +
                          std::to_string(spec.tenants.size()) +
                          " tenants");
        for (std::size_t i = 0; i < weights_.size(); ++i)
            spec.tenants[i].weight = weights_[i];
    }
    labelTenants(spec);
    return spec;
}

ServeSpec
parseServeSpecString(const std::string &text)
{
    ServeSpec spec;
    try {
        ServeSpecBuilder builder;
        std::istringstream is(text);
        for (const app::ConfigLine &l : app::scanConfigLines(is)) {
            if (l.isSection)
                lineFatal(l.no, "serve specs have no sections (put "
                                "the keys at top level)");
            builder.apply(l);
        }
        spec = builder.build();
    } catch (const FatalError &e) {
        fatal("serve spec ", e.what());
    }
    validateServeSpec(spec);
    return spec;
}

ServeSpec
parseServeSpecFile(const std::string &path)
{
    try {
        return parseServeSpecString(readFile(path));
    } catch (const FatalError &e) {
        fatal(path, ": ", e.what());
    }
}

std::string
serializeServeSpec(const ServeSpec &spec)
{
    std::ostringstream os;
    os << "serve = " << spec.name << '\n';
    os << "soc = " << spec.soc << '\n';
    os << "requests = " << spec.requests << '\n';
    os << "threads = " << spec.threads << '\n';
    os << "swap-interval = " << spec.swapInterval << '\n';
    os << "train = " << spec.trainIterations << '\n';
    os << "shards = " << spec.trainShards << '\n';
    os << "merge = " << rl::toString(spec.merge) << '\n';
    os << "explore = " << rl::toString(spec.explore) << '\n';
    os << "model = " << rl::toString(spec.model) << '\n';
    os << "reward-weights = " << formatDouble(spec.weights.exec) << ", "
       << formatDouble(spec.weights.comm) << ", "
       << formatDouble(spec.weights.mem) << '\n';
    os << "tenants = ";
    for (std::size_t i = 0; i < spec.tenants.size(); ++i)
        os << (i ? ", " : "") << spec.tenants[i].source;
    os << '\n';
    os << "tenant-weights = ";
    for (std::size_t i = 0; i < spec.tenants.size(); ++i)
        os << (i ? ", " : "") << formatDouble(spec.tenants[i].weight);
    os << '\n';
    os << "arrival-rate = " << formatDouble(spec.arrivalRate) << '\n';
    os << "seed = " << spec.seed << '\n';
    os << "train-seed = " << spec.trainSeed << '\n';
    os << "agent-seed = " << spec.agentSeed << '\n';
    if (!spec.loadState.empty())
        os << "load-state = " << spec.loadState << '\n';
    if (!spec.saveState.empty())
        os << "save-state = " << spec.saveState << '\n';
    if (!spec.decisionLog.empty())
        os << "decision-log = " << spec.decisionLog << '\n';
    return os.str();
}

} // namespace cohmeleon::serve

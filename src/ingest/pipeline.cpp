#include "ingest/pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "common/lockfree_queue.hpp"
#include "common/log.hpp"
#include "common/serial.hpp"
#include "common/stats.hpp"
#include "ingest/stream.hpp"

namespace rap::ingest {

namespace {

/** Seconds written as microseconds (write-only). */
struct Micros
{
    Json write(double seconds) const { return Json(seconds * 1e6); }
};

/** A digest written as lowercase hex (write-only). */
struct Hex
{
    Json
    write(std::uint64_t value) const
    {
        char buf[17];
        const auto result =
            std::to_chars(buf, buf + sizeof(buf), value, 16);
        return Json(std::string(buf, result.ptr));
    }
};

constexpr auto kReportFields = [](auto &r, auto &v) {
    v("events", r.events);
    v("dropped", r.dropped);
    v("spilled", r.spilled);
    v("replayed", r.replayed);
    v("batches", r.batches);
    v("rows_staged", r.rowsStaged);
    v("staging_p50_us", r.p50, Micros{});
    v("staging_p95_us", r.p95, Micros{});
    v("staging_p99_us", r.p99, Micros{});
    v("max_queue_depth", r.maxQueueDepth);
    v("last_ready_at", r.lastReadyAt);
    v("checksum", r.checksum, Hex{});
};

} // namespace

Json
IngestReport::toJson() const
{
    return serial::write(*this, kReportFields);
}

IngestPipeline::IngestPipeline(IngestConfig config)
    : config_(std::move(config)),
      schema_(data::makePresetSchema(config_.preset))
{
    const auto issues = validateIngestConfig(config_);
    if (!issues.empty()) {
        RAP_FATAL("invalid ingest config: ", issues.front().first,
                  ": ", issues.front().second);
    }
}

IngestReport
IngestPipeline::run(const BatchSink &sink,
                    obs::MetricRegistry *metrics,
                    const obs::Labels &labels)
{
    const auto streams = static_cast<std::size_t>(config_.streams);
    const std::size_t producers =
        config_.producers <= 0
            ? streams
            : std::min<std::size_t>(
                  static_cast<std::size_t>(config_.producers),
                  streams);

    IngestMetrics instruments;
    if (metrics != nullptr)
        instruments = IngestMetrics::create(*metrics, labels);

    std::vector<std::unique_ptr<SpscQueue<Event>>> rings;
    rings.reserve(streams);
    for (std::size_t s = 0; s < streams; ++s) {
        rings.push_back(std::make_unique<SpscQueue<Event>>(
            config_.ringCapacity));
    }
    const auto done =
        std::make_unique<std::atomic<bool>[]>(streams);
    for (std::size_t s = 0; s < streams; ++s)
        done[s].store(false, std::memory_order_relaxed);

    Stager stager(config_, schema_, sink, instruments);

    const auto wall_begin = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(producers);
    for (std::size_t p = 0; p < producers; ++p) {
        threads.emplace_back([&, p] {
            // This thread's streams, each with a one-event lookahead
            // buffer so a full ring never blocks the other streams.
            struct Owned
            {
                std::size_t stream;
                StreamEmitter emitter;
                Event pending;
                bool hasPending = false;
                bool exhausted = false;
            };
            std::vector<Owned> owned;
            for (std::size_t s = p; s < streams; s += producers) {
                owned.push_back(
                    {s,
                     StreamEmitter(config_, schema_,
                                   static_cast<std::uint32_t>(s)),
                     Event{}});
            }
            obs::Counter *events = instruments.events;
            std::size_t live = owned.size();
            while (live > 0) {
                bool progressed = false;
                for (auto &o : owned) {
                    if (o.exhausted)
                        continue;
                    if (!o.hasPending) {
                        if (o.emitter.next(o.pending)) {
                            o.hasPending = true;
                            if (events != nullptr)
                                events->inc();
                        } else {
                            // Publish everything pushed so far, then
                            // mark the stream finished (release pairs
                            // with the consumer's acquire).
                            done[o.stream].store(
                                true, std::memory_order_release);
                            o.exhausted = true;
                            --live;
                            progressed = true;
                            continue;
                        }
                    }
                    if (rings[o.stream]->tryPush(
                            std::move(o.pending))) {
                        o.hasPending = false;
                        progressed = true;
                    }
                }
                if (!progressed)
                    std::this_thread::yield();
            }
        });
    }

    // Consumer: k-way merge on the event key. The minimum head can
    // only be committed once every non-exhausted stream has a head
    // buffered — an empty ring might still deliver an earlier event.
    // An exhausted stream, by construction, has no buffered head.
    std::vector<std::optional<Event>> heads(streams);
    std::vector<bool> exhausted(streams, false);
    std::size_t open = streams;
    while (open > 0) {
        for (std::size_t s = 0; s < streams; ++s) {
            if (exhausted[s] || heads[s].has_value())
                continue;
            Event event;
            if (rings[s]->tryPop(event)) {
                heads[s] = std::move(event);
                continue;
            }
            // Empty ring: final once the producer's done flag is
            // visible AND a re-pop (ordered after the acquire) still
            // finds nothing.
            if (done[s].load(std::memory_order_acquire)) {
                if (rings[s]->tryPop(event)) {
                    heads[s] = std::move(event);
                } else {
                    exhausted[s] = true;
                    --open;
                }
            }
        }
        std::size_t min_stream = streams;
        bool ready = true;
        for (std::size_t s = 0; s < streams; ++s) {
            if (heads[s].has_value()) {
                if (min_stream == streams ||
                    eventBefore(*heads[s], *heads[min_stream]))
                    min_stream = s;
            } else if (!exhausted[s]) {
                ready = false;
                break;
            }
        }
        if (ready && min_stream < streams) {
            stager.push(std::move(*heads[min_stream]));
            heads[min_stream].reset();
        } else if (!ready) {
            std::this_thread::yield();
        }
    }
    for (auto &thread : threads)
        thread.join();
    stager.finish();
    const auto wall_end = std::chrono::steady_clock::now();

    const auto &stats = stager.stats();
    IngestReport report;
    report.events = stats.arrived;
    report.dropped = stats.dropped;
    report.spilled = stats.spilled;
    report.replayed = stats.replayed;
    report.batches = stats.batches;
    report.rowsStaged = stats.rowsStaged;
    if (!stats.latencies.empty()) {
        report.p50 = percentile(stats.latencies, 50.0);
        report.p95 = percentile(stats.latencies, 95.0);
        report.p99 = percentile(stats.latencies, 99.0);
    }
    report.maxQueueDepth = stats.maxQueueDepth;
    report.lastReadyAt = stats.lastReadyAt;
    report.checksum = stats.checksum;
    report.wallMs =
        std::chrono::duration<double, std::milli>(wall_end -
                                                  wall_begin)
            .count();
    return report;
}

} // namespace rap::ingest

#include "mem/dram.hh"

#include <algorithm>
#include <limits>

namespace wsl {

namespace {
constexpr std::uint64_t noSeq = std::numeric_limits<std::uint64_t>::max();
} // namespace

DramChannel::DramChannel(const GpuConfig &c) : cfg(c)
{
    banks.resize(cfg.dramBanks);
}

unsigned
DramChannel::bankOf(Addr line) const
{
    // Lines interleave across partitions first (see partitionOf), then
    // across this channel's banks, so a sequential stream fills one row
    // of each bank before moving on.
    const std::uint64_t local =
        (line / lineSize) / cfg.numMemPartitions;
    return static_cast<unsigned>(local % cfg.dramBanks);
}

std::uint64_t
DramChannel::rowOf(Addr line) const
{
    const std::uint64_t local =
        (line / lineSize) / cfg.numMemPartitions;
    const std::uint64_t lines_per_row = cfg.dramRowBytes / lineSize;
    return local / (cfg.dramBanks * lines_per_row);
}

void
DramChannel::push(const DramRequest &req)
{
    Bank &bank = banks[bankOf(req.line)];
    bank.q.push_back(
        {req.line, req.arrive, nextSeq++, rowOf(req.line), req.write});
    ++queued;
    horizonValid = false;
}

void
DramChannel::tick(Cycle now, std::vector<DramCompletion> &completed)
{
    // Retire finished transfers (doneAt is strictly increasing: each
    // issue chains the bus, so the front is always the oldest).
    while (!inFlight.empty() && inFlight.front().doneAt <= now) {
        const Transfer &t = inFlight.front();
        if (!t.write)
            completed.push_back({t.line, t.doneAt});
        inFlight.pop();
    }
    if (queued == 0)
        return;
    // Nothing about the scheduling decision can have changed since the
    // last blocked pass computed its horizon (pushes invalidate it).
    if (horizonValid && now < horizonAt)
        return;
    horizonValid = false;

    // FR-FCFS: among arrived requests, prefer the oldest row hit whose
    // bank is ready; otherwise the oldest request overall (activating
    // its row if needed). Bank queues are seq-ascending, so the first
    // arrived entry of each bank is its oldest and the first arrived
    // row-match its best hit. `wake` accumulates the earliest cycle at
    // which a blocked pass could go differently.
    std::uint64_t hit_seq = noSeq;
    std::uint64_t oldest_seq = noSeq;
    unsigned hit_bank = 0, oldest_bank = 0;
    std::size_t hit_pos = 0, oldest_pos = 0;
    Cycle wake = neverCycle;
    for (unsigned b = 0; b < banks.size(); ++b) {
        Bank &bank = banks[b];
        if (bank.q.empty())
            continue;
        const bool col_ready = bank.openRow >= 0 && bank.readyAt <= now;
        bool found_oldest = false;
        bool found_hit = false;
        for (std::size_t i = 0; i < bank.q.size(); ++i) {
            const BankEntry &e = bank.q[i];
            if (e.arrive > now) {
                wake = std::min(wake, e.arrive);
                continue;
            }
            if (!found_oldest) {
                found_oldest = true;
                if (e.seq < oldest_seq) {
                    oldest_seq = e.seq;
                    oldest_bank = b;
                    oldest_pos = i;
                }
                if (bank.readyAt > now)
                    wake = std::min(wake, bank.readyAt);
            }
            if (col_ready && !found_hit &&
                e.row == static_cast<std::uint64_t>(bank.openRow)) {
                found_hit = true;
                if (e.seq < hit_seq) {
                    hit_seq = e.seq;
                    hit_bank = b;
                    hit_pos = i;
                }
            }
        }
    }

    if (hit_seq != noSeq) {
        // Column access on an open row.
        if (busBusyUntil > now + cfg.tCL) {
            // Data bus contention. No arrival or bank event can lift
            // this gate, so the outcome is pinned until the bus drains
            // to within the CAS-latency pipelining window.
            horizonAt = busBusyUntil - cfg.tCL;
            horizonValid = true;
            return;
        }
        Bank &bank = banks[hit_bank];
        const BankEntry e = bank.q[hit_pos];
        bank.q.erase(bank.q.begin() +
                     static_cast<std::ptrdiff_t>(hit_pos));
        --queued;
        const Cycle data_start = std::max(now + cfg.tCL, busBusyUntil);
        const Cycle done = data_start + cfg.dramBurst;
        busBusyUntil = done;
        bank.readyAt = now + cfg.dramBurst;  // CCD approximation
        inFlight.push({e.line, e.write, done});
        stats.dramBusyCycles += cfg.dramBurst;
        ++stats.dramRowHits;
        if (e.write)
            ++stats.dramWrites;
        else
            ++stats.dramReads;
        return;
    }

    if (oldest_seq == noSeq) {
        // Requests queued but none arrived yet.
        horizonAt = wake;
        horizonValid = true;
        return;
    }

    // Row miss on the oldest request: precharge + activate its bank.
    Bank &bank = banks[oldest_bank];
    if (bank.readyAt > now) {
        // Bank busy with a previous activate/precharge. `wake` already
        // includes this bank's readyAt and every pending arrival.
        horizonAt = wake;
        horizonValid = true;
        return;
    }
    if (lastActivateAny + cfg.tRRD > now) {
        // Activate-to-activate spacing.
        horizonAt = std::min(wake, lastActivateAny + cfg.tRRD);
        horizonValid = true;
        return;
    }
    const BankEntry &e = bank.q[oldest_pos];
    const Cycle pre_start = std::max(now, bank.lastActivate + cfg.tRAS);
    const Cycle act_done = pre_start + cfg.tRP + cfg.tRCD;
    bank.openRow = static_cast<std::int64_t>(e.row);
    bank.readyAt = act_done;
    bank.lastActivate = pre_start + cfg.tRP;
    lastActivateAny = now;
    ++stats.dramRowMisses;
    // The request stays queued; it issues as a row hit once readyAt.
}

} // namespace wsl

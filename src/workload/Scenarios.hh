/**
 * @file
 * The evaluation's two-node scenarios, each defined once: the
 * Fig. 12(a) replay (FabricPair::replay), the offered-load cell
 * (OfferedLoadCell) and the Fig. 12(b) NF cell (NfCell).
 *
 * A scenario builds the system and drives its traffic; it measures
 * nothing. Callers install a receive handler on the exposed nodes (or
 * read the NF harness and probe) and keep their own warm-up rule,
 * statistic and event count.
 */

#ifndef NETDIMM_WORKLOAD_SCENARIOS_HH
#define NETDIMM_WORKLOAD_SCENARIOS_HH

#include <string>
#include <vector>

#include "kernel/Node.hh"
#include "net/Switch.hh"
#include "workload/MemLatencyProbe.hh"
#include "workload/NfHarness.hh"
#include "workload/TraceGen.hh"

namespace netdimm
{

/** Two nodes, ids 0 and 1, attached to one ClosFabric "fabric". */
struct FabricPair
{
    FabricPair(NicKind kind, Tick switchLatency,
               std::string txName = "tx", std::string rxName = "rx");

    /** Both nodes' configuration: @p kind at @p switchLatency. */
    SystemConfig cfg;
    EventQueue eq;
    Node tx;
    Node rx;
    ClosFabric fabric;

    /**
     * Fig. 12(a) raw-frame replay: send every record of @p trace from
     * tx to rx at its arrival time, on flow 1 + i % 8 with the
     * record's locality stamped on the packet, then run to
     * completion.
     */
    void replay(const std::vector<TraceRecord> &trace);
};

/** Two nodes, "tx" and "rx", on one EthLink "link". */
struct OfferedLoadCell
{
    explicit OfferedLoadCell(NicKind kind);

    SystemConfig cfg;
    EventQueue eq;
    Node tx;
    Node rx;
    EthLink link;

    /**
     * Send @p npackets 1460 B frames from tx to rx with exponential
     * gaps (Random(321)) at @p offeredGbps, on flows 1..8 in turn,
     * then run to completion.
     */
    void run(double offeredGbps, int npackets);
};

/**
 * Fig. 12(b) cell: node "gen" (net.tx) feeds trace traffic to the NF
 * box (net.rx) over a ClosFabric at the default switch latency. The
 * box runs NfHarness "nf" and MemLatencyProbe "probe", the co-runner.
 */
struct NfCell
{
    NfCell(NicKind kind, NfKind nf, std::string boxName);

    FabricPair net;
    NfHarness harness;
    MemLatencyProbe probe;

    /**
     * Warm and start the probe, drop its samples when traffic starts
     * at 150 us, send @p npackets records of TraceGen(cluster, gbps,
     * seed) to the box on flows 1 + i % 8, run until 50 us after the
     * last arrival, and stop the probe.
     */
    void run(ClusterType cluster, double gbps, std::uint64_t seed,
             int npackets);
};

} // namespace netdimm

#endif // NETDIMM_WORKLOAD_SCENARIOS_HH

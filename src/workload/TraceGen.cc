#include "workload/TraceGen.hh"

#include "workload/TraceFile.hh"

namespace netdimm
{

std::vector<std::vector<TraceRecord>>
synthesizeClusterTraces(const std::vector<ClusterType> &clusters,
                        double offered_gbps, std::uint64_t seed,
                        int npackets)
{
    std::vector<std::vector<TraceRecord>> traces;
    traces.reserve(clusters.size());
    for (ClusterType c : clusters) {
        TraceGen gen(c, offered_gbps, seed);
        traces.push_back(TraceFile::synthesize(gen, npackets));
    }
    return traces;
}

const char *
clusterName(ClusterType c)
{
    switch (c) {
      case ClusterType::Database:
        return "database";
      case ClusterType::Webserver:
        return "webserver";
      case ClusterType::Hadoop:
        return "hadoop";
    }
    return "?";
}

namespace
{
/** Monte-Carlo estimate is overkill; means follow from the mixes. */
double
clusterMeanBytes(ClusterType c)
{
    switch (c) {
      case ClusterType::Database:
        return (64.0 + 1514.0) / 2.0;
      case ClusterType::Webserver:
        return 0.9 * (64.0 + 300.0) / 2.0 +
               0.1 * (300.0 + 1514.0) / 2.0;
      case ClusterType::Hadoop:
        return 0.41 * (64.0 + 100.0) / 2.0 + 0.52 * 1514.0 +
               0.07 * (100.0 + 1514.0) / 2.0;
    }
    return 512.0;
}
} // namespace

TraceGen::TraceGen(ClusterType cluster, double offered_gbps,
                   std::uint64_t seed)
    : _cluster(cluster), _offeredGbps(offered_gbps),
      _meanBytes(clusterMeanBytes(cluster)), _rng(seed)
{
    ND_ASSERT(offered_gbps > 0);
}

std::uint32_t
TraceGen::sampleBytes()
{
    switch (_cluster) {
      case ClusterType::Database:
        return std::uint32_t(_rng.uniformInt(64, 1514));
      case ClusterType::Webserver:
        if (_rng.bernoulli(0.90))
            return std::uint32_t(_rng.uniformInt(64, 299));
        return std::uint32_t(_rng.uniformInt(300, 1514));
      case ClusterType::Hadoop: {
        double u = _rng.uniformDouble();
        if (u < 0.41)
            return std::uint32_t(_rng.uniformInt(64, 99));
        if (u < 0.41 + 0.52)
            return 1514;
        return std::uint32_t(_rng.uniformInt(100, 1514));
      }
    }
    return 64;
}

TrafficLocality
TraceGen::sampleLocality()
{
    double u = _rng.uniformDouble();
    switch (_cluster) {
      case ClusterType::Database:
        // Mostly inter-cluster and inter-datacenter.
        if (u < 0.10)
            return TrafficLocality::IntraCluster;
        if (u < 0.55)
            return TrafficLocality::IntraDatacenter;
        return TrafficLocality::InterDatacenter;
      case ClusterType::Webserver:
        // Mostly inter-cluster but intra-datacenter.
        if (u < 0.15)
            return TrafficLocality::IntraCluster;
        if (u < 0.95)
            return TrafficLocality::IntraDatacenter;
        return TrafficLocality::InterDatacenter;
      case ClusterType::Hadoop:
        // Local to the cluster.
        if (u < 0.10)
            return TrafficLocality::IntraRack;
        if (u < 0.95)
            return TrafficLocality::IntraCluster;
        return TrafficLocality::IntraDatacenter;
    }
    return TrafficLocality::IntraCluster;
}

TraceRecord
TraceGen::next()
{
    TraceRecord rec;
    rec.bytes = sampleBytes();
    rec.locality = sampleLocality();
    // Exponential inter-arrival with a mean matching the offered
    // load for this cluster's mean packet size.
    double mean_gap_ns = _meanBytes * 8.0 / _offeredGbps;
    rec.interArrival = Tick(_rng.exponential(mean_gap_ns) *
                            double(tickPerNs));
    return rec;
}

} // namespace netdimm

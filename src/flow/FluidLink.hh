/**
 * @file
 * Fluid model of one congested link direction (hybrid fidelity,
 * DESIGN.md §17).
 *
 * Bulk flows traversing the link are represented as a single
 * aggregate arrival *rate*; the queue backlog is integrated
 * piecewise-linearly and exactly between solver rounds, including
 * the two kinks a linear segment can have: the backlog clamping at
 * zero (queue runs dry mid-interval) and crossing the tail-drop cap
 * (excess arrivals drop for the rest of the interval). ECN and
 * tail-drop thresholds are evaluated on the fluid backlog in the
 * same frame units the packet-level Switch uses.
 *
 * The link doubles as the packet side's FluidBackground: a
 * packet-level frame sent on the shadowed EthLink waits behind the
 * interpolated fluid backlog, and the frame's wire bytes are
 * deducted from the capacity the fluid flows compete for, so
 * interference flows both ways.
 *
 * Units: everything in this class is *wire* bytes (payload + frame
 * framing at a reference frame size); the solver converts per-flow
 * payload quantities at the wireFactor() boundary.
 */

#ifndef NETDIMM_FLOW_FLUIDLINK_HH
#define NETDIMM_FLOW_FLUIDLINK_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <string>
#include <utility>

#include "net/Link.hh"
#include "sim/SystemConfig.hh"
#include "sim/Ticks.hh"

namespace netdimm
{

class FluidSolver;

class FluidLink : public FluidBackground
{
  public:
    /**
     * @param cfg link rate plus queue/ECN/framing parameters, shared
     *        with the packet-level link this shadows.
     * @param ref_frame_bytes reference payload size converting
     *        between bytes and the Switch's frame-granular
     *        thresholds (an MTU segment for bulk traffic).
     */
    FluidLink(std::string name, const EthConfig &cfg,
              std::uint32_t ref_frame_bytes)
        : _name(std::move(name)), _cfg(cfg),
          _refWireFrame(std::max(ref_frame_bytes, cfg.minFrameBytes) +
                        cfg.framingBytes),
          _wireFactor(double(_refWireFrame) /
                      double(std::max(ref_frame_bytes, 1u))),
          _capBps(cfg.gbps / 8000.0)
    {
        _capEffBps = _capBps;
    }

    const std::string &name() const { return _name; }
    /** Wire bytes one reference frame occupies. */
    std::uint32_t refWireFrameBytes() const { return _refWireFrame; }
    /** Wire bytes per payload byte at the reference frame size. */
    double wireFactor() const { return _wireFactor; }
    /** Tail-drop capacity in wire bytes (0 = unbounded). */
    double
    capWireBytes() const
    {
        return double(_cfg.switchQueueFrames) * _refWireFrame;
    }
    /** ECN threshold in wire bytes (0 = marking disabled). */
    double
    ecnWireBytes() const
    {
        return double(_cfg.ecnThresholdFrames) * _refWireFrame;
    }

    // -- solver interface ------------------------------------------------

    /** Aggregate fluid arrival rate for the *next* interval
     *  (wire Gbps). */
    void setFluidArrivalGbps(double gbps) { _arrBps = gbps / 8000.0; }

    /** Add one flow's next-interval rate (wire Gbps) to the sum that
     *  commitFluidArrival() installs. */
    void addFluidArrivalGbps(double gbps) { _arrSumGbps += gbps; }

    /** Install the summed next-interval arrival rate and restart the
     *  sum (a link no flow added to gets rate 0). */
    void
    commitFluidArrival()
    {
        setFluidArrivalGbps(_arrSumGbps);
        _arrSumGbps = 0.0;
    }

    /**
     * Integrate the backlog exactly over [lastAdvance, now]. The
     * fluid drains at the link capacity minus the measured
     * packet-level rate over the same window (packet frames claim
     * the transmitter byte-for-byte). Also computes the window's
     * round signals (deliveredShare(), droppedShare(),
     * roundCongested()) once, for every flow on the link to read.
     */
    void
    advanceTo(Tick now)
    {
        double startBacklog = _backlog;
        double dt = double(now - _lastT);
        Window w;
        if (dt > 0.0) {
            double pktBps = double(_pktWindowBytes) / dt;
            _capEffBps = std::max(0.0, _capBps - pktBps);
            w = integrate(_arrBps, _capEffBps, dt);
            _history.emplace_back(now, _backlog);
            if (_history.size() > kHistoryRounds)
                _history.pop_front();
        }
        _lastT = now;
        _pktWindowBytes = 0;

        double pool = startBacklog + w.arrived;
        _deliveredShare = pool > 0.0 ? w.delivered / pool : 1.0;
        _droppedShare = pool > 0.0 ? w.dropped / pool : 0.0;
        _roundCongested = congestedLagged(now) || _droppedShare > 0.0;
    }

    /** Backlog at @p now >= lastAdvance, interpolating the open
     *  interval with the current rates (exact same math the next
     *  advanceTo() will apply, minus the not-yet-known packet
     *  window). */
    double
    backlogAt(Tick now) const
    {
        double b = _backlog;
        double dt = double(now - _lastT);
        if (dt <= 0.0)
            return b;
        double net = _arrBps - _capEffBps;
        b += net * dt;
        double cap = capWireBytes();
        if (cap > 0.0)
            b = std::min(b, cap);
        return std::max(b, 0.0);
    }

    /** ECN signal for fluid flows: backlog at/above the threshold. */
    bool
    congested() const
    {
        double ecn = ecnWireBytes();
        return ecn > 0.0 && _backlog >= ecn;
    }

    /** congested() evaluated on the newest recorded round boundary
     *  at or before @p t (uncongested before any history). */
    bool
    congestedAt(Tick t) const
    {
        double ecn = ecnWireBytes();
        if (ecn <= 0.0)
            return false;
        for (auto it = _history.rbegin(); it != _history.rend(); ++it)
            if (it->first <= t)
                return it->second >= ecn;
        return false;
    }

    /**
     * The congestion signal a sender observes at @p now: in the
     * packet domain an ECN mark reflects the queue depth at enqueue
     * time, and reaches the sender only after the marked frame has
     * waited out the backlog in front of it. The echo arriving now
     * therefore carries the state of the newest round t_e whose
     * then-backlog has since fully drained: t_e + B(t_e)/C <= now.
     * (Sampling `now - B(now)/C` instead is unstable: under runaway
     * growth the lag outruns the clock and the feedback loop never
     * closes.) Closing the fluid control loop on the echo-arrival
     * signal reproduces the packet domain's cut/drain phase dynamics
     * instead of an unrealistically crisp response.
     */
    bool
    congestedLagged(Tick now) const
    {
        double ecn = ecnWireBytes();
        if (ecn <= 0.0 || _capBps <= 0.0)
            return false;
        for (auto it = _history.rbegin(); it != _history.rend(); ++it)
            if (double(it->first) + it->second / _capBps <=
                double(now))
                return it->second >= ecn;
        return false;
    }

    // -- round signals of the last window (set by advanceTo) --------

    /**
     * Fraction of the window pool (backlog at window start + window
     * arrivals) that was delivered. 1 when the pool was empty.
     */
    double deliveredShare() const { return _deliveredShare; }

    /** Fraction of the window pool that was tail-dropped. */
    double droppedShare() const { return _droppedShare; }

    /** The congestion signal a sender on this link sees at the last
     *  advanceTo(now): congestedLagged(now), or tail drops in the
     *  window. */
    bool roundCongested() const { return _roundCongested; }

    // -- cumulative statistics (wire bytes) ------------------------------

    double arrivedWireBytes() const { return _cumArrived; }
    double deliveredWireBytes() const { return _cumDelivered; }
    double droppedWireBytes() const { return _cumDropped; }
    double backlogWireBytes() const { return _backlog; }
    double maxBacklogWireBytes() const { return _maxBacklog; }

    // -- FluidBackground (packet-level side) -----------------------------

    std::uint64_t
    backlogWireBytesAt(Tick now) const override
    {
        return std::uint64_t(std::llround(backlogAt(now)));
    }

    std::uint64_t
    backlogFramesAt(Tick now) const override
    {
        return std::uint64_t(backlogAt(now)) / _refWireFrame;
    }

    void
    onPacketWireBytes(std::uint32_t wire_bytes) override
    {
        _pktWindowBytes += wire_bytes;
    }

  private:
    /** Wire bytes one advanceTo() window moved. */
    struct Window
    {
        double arrived = 0.0;
        double delivered = 0.0;
        double dropped = 0.0;
    };

    /**
     * Exact integration of one linear segment: arrivals at @p a,
     * service at @p c (wire bytes/tick) for @p dt ticks. Splits the
     * interval at the zero-crossing (queue runs dry) or the
     * cap-crossing (tail drop begins); within each piece the backlog
     * is linear, so the update is closed-form, not stepped.
     */
    Window
    integrate(double a, double c, double dt)
    {
        Window w;
        w.arrived = a * dt;
        _cumArrived += w.arrived;
        double net = a - c;
        double cap = capWireBytes();
        if (net >= 0.0) {
            // Queue non-decreasing: the transmitter is busy the whole
            // interval whenever there is anything to send.
            w.delivered = (a > 0.0 || _backlog > 0.0) ? c * dt : 0.0;
            double nb = _backlog + net * dt;
            if (cap > 0.0 && nb > cap) {
                double tc = net > 0.0 ? (cap - _backlog) / net : 0.0;
                w.dropped = net * (dt - tc);
                nb = cap;
            }
            _backlog = nb;
        } else {
            double drainT = -net > 0.0 ? _backlog / -net : 0.0;
            if (drainT >= dt) {
                w.delivered = c * dt;
                _backlog += net * dt;
            } else {
                // Busy until the queue runs dry, then the output
                // tracks the arrivals.
                w.delivered = c * drainT + a * (dt - drainT);
                _backlog = 0.0;
            }
        }
        _cumDelivered += w.delivered;
        _cumDropped += w.dropped;
        _maxBacklog = std::max(_maxBacklog, _backlog);
        return w;
    }

    const std::string _name;
    const EthConfig _cfg;
    const std::uint32_t _refWireFrame;
    const double _wireFactor;
    const double _capBps; ///< capacity, wire bytes per tick

    double _arrBps = 0.0;   ///< fluid arrivals, wire bytes per tick
    double _capEffBps = 0.0; ///< capacity minus packet load, last window
    double _backlog = 0.0;   ///< wire bytes queued
    Tick _lastT = 0;
    std::uint64_t _pktWindowBytes = 0;

    double _arrSumGbps = 0.0; ///< next-interval arrivals being summed

    double _deliveredShare = 1.0;
    double _droppedShare = 0.0;
    bool _roundCongested = false;

    /** Bounds the congestedAt() lookback (rounds, i.e. RTT-scale
     *  intervals); lags beyond it clamp to the oldest entry. */
    static constexpr std::size_t kHistoryRounds = 512;
    /** (round tick, backlog) at recent round ends, oldest first. */
    std::deque<std::pair<Tick, double>> _history;

    double _cumArrived = 0.0;
    double _cumDelivered = 0.0;
    double _cumDropped = 0.0;
    double _maxBacklog = 0.0;

    /** The solver whose addLink() created this link and whose rounds
     *  advance it; only its flows may route over the link. */
    friend class FluidSolver;
    const FluidSolver *_owner = nullptr;
};

} // namespace netdimm

#endif // NETDIMM_FLOW_FLUIDLINK_HH

/**
 * @file
 * Discrete PCIe-attached NIC (dNIC, Fig. 1 left).
 *
 * Every host interaction crosses the PCIe link: the doorbell is an
 * MMIO posted write, descriptor and payload fetches are non-posted
 * reads serviced by the root complex out of the LLC (DDIO) or DRAM,
 * and received frames are posted writes that allocate into the
 * DDIO-restricted LLC ways. The accumulated PCIe time is recorded in
 * Packet::pcieTicks to reproduce the pcie.overh series of Fig. 4.
 */

#ifndef NETDIMM_NIC_DISCRETENIC_HH
#define NETDIMM_NIC_DISCRETENIC_HH

#include "cache/Llc.hh"
#include "nic/NicDevice.hh"
#include "sim/SimObject.hh"
#include "pcie/PcieLink.hh"

namespace netdimm
{

class DiscreteNic final : public SimObject, public NicDevice
{
  public:
    DiscreteNic(EventQueue &eq, std::string name,
                const SystemConfig &cfg, PcieLink &pcie, Llc &llc);

    void transmit(const PacketPtr &pkt) override;

  protected:
    void rxPath(const PacketPtr &pkt) override;

  private:
    PcieLink &_pcie;
    Llc &_llc;
};

} // namespace netdimm

#endif // NETDIMM_NIC_DISCRETENIC_HH

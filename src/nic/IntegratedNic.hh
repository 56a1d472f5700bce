/**
 * @file
 * Integrated on-die NIC (iNIC, Fig. 1 middle).
 *
 * The NIC shares the die with the cores: register accesses are an
 * uncore round trip, and the DMA engine talks to the LLC directly.
 * Received frames allocate straight into the LLC (whole packet --
 * the on-chip pollution the paper's Sec. 3 (L3) criticizes), and
 * transmit payload fetches read through the LLC. Descriptor fetches
 * go to DRAM: the driver's descriptor stores drain out of the core
 * caches and the uncore DMA agent reads them from memory, as in the
 * paper's gem5 model. No PCIe transactions exist on any path.
 */

#ifndef NETDIMM_NIC_INTEGRATEDNIC_HH
#define NETDIMM_NIC_INTEGRATEDNIC_HH

#include "cache/Llc.hh"
#include "nic/NicDevice.hh"
#include "sim/SimObject.hh"

namespace netdimm
{

class IntegratedNic final : public SimObject, public NicDevice
{
  public:
    /**
     * @param llc the shared last-level cache.
     * @param mem the memory system (descriptor-path accesses).
     */
    IntegratedNic(EventQueue &eq, std::string name,
                  const SystemConfig &cfg, Llc &llc, MemTarget &mem);

    void transmit(const PacketPtr &pkt) override;

  protected:
    void rxPath(const PacketPtr &pkt) override;

  private:
    Llc &_llc;
    MemTarget &_mem;
};

} // namespace netdimm

#endif // NETDIMM_NIC_INTEGRATEDNIC_HH

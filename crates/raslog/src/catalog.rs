//! The error-code catalogue: every ERRCODE the log can contain.
//!
//! The Intrepid RAS log reports FATAL events under **82 distinct ERRCODEs**
//! drawn from six components (Section III-B of the paper). We reproduce a
//! catalogue of the same size and composition: the paper's named codes
//! (`BULK_POWER_FATAL`, `_bgp_err_torus_fatal_sum`,
//! `_bgp_err_cns_ras_storm_fatal`, `CiodHungProxy`, `bg_code_script_error`,
//! the L1-parity / DDR-controller / file-system-configuration / link-card
//! system failures, the invalid-memory / out-of-memory / file-system /
//! collective application errors) plus a realistic long tail, along with a
//! set of non-FATAL background codes (ECC warnings, boot progress, …) that
//! provide the log's bulk volume.
//!
//! A [`ErrCode`] is an index into the catalogue; records store the index, and
//! everything static about a code (component, subcomponent, default
//! severity, MSG_ID, message template) lives here exactly once.
//!
//! Note the catalogue is *descriptive*, not semantic: it says what a code
//! looks like in the log, never whether it is "really" a system failure or an
//! application error — discovering that is the co-analysis' job, and the
//! ground truth lives only in the simulator's fault model.

use crate::component::Component;
use crate::severity::Severity;
use std::fmt;
use std::sync::OnceLock;

/// A compact reference to a catalogue entry (the ERRCODE of a record).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ErrCode(pub u16);

impl ErrCode {
    /// The dense index of this code in the catalogue.
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

impl fmt::Display for ErrCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", Catalog::standard().info(*self).name)
    }
}

/// Everything static about one error code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodeInfo {
    /// The ERRCODE token as it appears in the log.
    pub name: &'static str,
    /// Reporting component.
    pub component: Component,
    /// Functional area within the component (SUBCOMPONENT field).
    pub subcomponent: &'static str,
    /// Severity this code is reported at.
    pub severity: Severity,
    /// MSG_ID, e.g. `KERN_0807` (component prefix + catalogue ordinal).
    pub msg_id: String,
    /// MESSAGE template written to the log.
    pub template: &'static str,
}

/// The text of a log line that its ERRCODE fixes, built once per code: the
/// one definition the log writer and the parser's head probe share.
#[derive(Debug)]
pub(crate) struct CodeText {
    /// `|MSG_ID|COMPONENT|SUBCOMPONENT|ERRCODE|SEVERITY|`, between RECID and
    /// EVENT_TIME, with the code's catalogue severity.
    pub(crate) head: Box<[u8]>,
    /// Where SEVERITY starts in `head`.
    pub(crate) severity_at: usize,
    /// `|MESSAGE`, after LOCATION.
    pub(crate) tail: Box<[u8]>,
}

impl CodeText {
    fn of(info: &CodeInfo) -> CodeText {
        let mut head = Vec::new();
        for field in [
            info.msg_id.as_str(),
            info.component.as_str(),
            info.subcomponent,
            info.name,
        ] {
            head.push(b'|');
            head.extend_from_slice(field.as_bytes());
        }
        head.push(b'|');
        let severity_at = head.len();
        head.extend_from_slice(info.severity.as_str().as_bytes());
        head.push(b'|');
        let mut tail = vec![b'|'];
        tail.extend_from_slice(info.template.as_bytes());
        CodeText {
            head: head.into(),
            severity_at,
            tail: tail.into(),
        }
    }
}

/// The error-code catalogue.
#[derive(Debug)]
pub struct Catalog {
    entries: Vec<CodeInfo>,
    /// Every code's [`CodeText`], indexed by `ErrCode::index`.
    texts: Vec<CodeText>,
    /// Open-addressed name table (linear probing, never more than a quarter
    /// full): the slot of a name is [`name_slot`], an empty slot ends the
    /// probe.
    slots: Vec<Option<ErrCode>>,
    /// Open-addressed table of line heads, built like `slots`: the slot of
    /// a head is the [`home_slot`] of its [`head_key`].
    head_slots: Vec<Option<ErrCode>>,
}

/// log2 of the name and head tables' slot count: 512 slots for the ~120
/// codes.
const SLOT_BITS: u32 = 9;

/// The probe key of a line head that starts at RECID's `|`: the eight
/// bytes after MSG_ID's first. In the catalogue's `PREF_NNNN` MSG_IDs
/// they end with the four-digit ordinal, which no two codes share.
fn head_key(head: &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(*head.get(2..10)?.first_chunk()?))
}

/// Home slot of a 64-bit key in the name or head table.
fn home_slot(key: u64) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - SLOT_BITS)) as usize
}

/// Whether `rest` starts with `head`, compared eight bytes at a time with
/// a last word that may overlap the one before it: a head is 44–71 bytes,
/// and a `memcmp` call cost a line whose head declines ~4 ns more.
fn starts_with_words(rest: &[u8], head: &[u8]) -> bool {
    let (Some(rest), Some(last)) = (rest.get(..head.len()), head.len().checked_sub(8)) else {
        return false;
    };
    let words = rest.as_chunks::<8>().0.iter();
    words.zip(head.as_chunks::<8>().0).all(|(a, b)| a == b) && rest[last..] == head[last..]
}

/// Insert `code` into an open-addressed table at its home `slot` or the
/// first free slot after it.
fn insert(slots: &mut [Option<ErrCode>], mut slot: usize, code: ErrCode) {
    while slots[slot].is_some() {
        slot = (slot + 1) % slots.len();
    }
    slots[slot] = Some(code);
}

/// Home slot of an ERRCODE token. The names share long prefixes
/// (`_bgp_err_`, `syslog_`), so the hash mixes the length with the last
/// eight bytes instead of reading the whole token.
fn name_slot(name: &[u8]) -> usize {
    // A token of eight bytes or more (every catalogue name) is one
    // fixed-size load; a shorter one is zero-padded.
    let word = name.last_chunk::<8>().copied().unwrap_or_else(|| {
        let mut word = [0u8; 8];
        word[..name.len()].copy_from_slice(name);
        word
    });
    home_slot(u64::from_le_bytes(word) ^ (name.len() as u64).rotate_right(8))
}

/// `(name, component, subcomponent, severity, message template)` rows for
/// the standard catalogue. FATAL rows first (all 82), then background codes.
type Row = (
    &'static str,
    Component,
    &'static str,
    Severity,
    &'static str,
);

use Component as C;
use Severity as S;

/// The 82 FATAL codes plus 14 background codes, then the synthetic
/// `syslog_*` facility namespace used by the generic syslog adapter.
#[rustfmt::skip]
static TABLE: &[Row] = &[
    // ------ kernel-reported application-side crashes (the co-analysis will
    // have to *discover* these are application errors) ------
    ("_bgp_err_app_invalid_mem_addr", C::Kernel, "CNS", S::Fatal,
     "Kernel detected invalid memory address in application TLB miss handler"),
    ("_bgp_err_app_out_of_memory", C::Kernel, "CNS", S::Fatal,
     "Out of memory in application heap region: brk() beyond persistent limit"),
    ("_bgp_err_fs_operation_error", C::Kernel, "CIOD", S::Fatal,
     "CIOD file system operation failed: invalid request from compute node"),
    ("_bgp_err_collective_op_error", C::Kernel, "MPI", S::Fatal,
     "Collective operation mismatch detected on tree network"),
    ("CiodHungProxy", C::Kernel, "CIOD", S::Fatal,
     "CIOD proxy hung waiting for file system response"),
    ("bg_code_script_error", C::Kernel, "CIOD", S::Fatal,
     "Job control script error in shared file system"),
    ("_bgp_err_app_alignment_trap", C::Kernel, "CNS", S::Fatal,
     "Alignment exception in application code"),
    ("_bgp_err_mpi_abort", C::Kernel, "MPI", S::Fatal,
     "MPI_Abort called by rank on communicator"),
    // ------ fatal-labeled but transient in practice (Observation 1) ------
    ("BULK_POWER_FATAL", C::Card, "PALOMINO_B", S::Fatal,
     "An error was detected in a bulk power module: environmental reading out of range"),
    ("_bgp_err_torus_fatal_sum", C::Kernel, "TORUS", S::Fatal,
     "Torus fatal summary: retransmission threshold crossed, recovered by protocol"),
    // ------ interruption-related system failures ------
    ("_bgp_err_cns_ras_storm_fatal", C::Kernel, "CNS", S::Fatal,
     "L1 data cache parity error: RAS storm from compute node kernel"),
    ("_bgp_err_ddr_controller", C::Kernel, "_bgp_unit_ddr", S::Fatal,
     "DDR controller error: uncorrectable chipkill event"),
    ("_bgp_err_fs_config", C::Kernel, "CIOD", S::Fatal,
     "File system configuration error: mount map inconsistent"),
    ("_bgp_err_linkcard_failure", C::Card, "PALOMINO_L", S::Fatal,
     "Link card failure: optical module loss of signal"),
    ("_bgp_err_kernel_panic", C::Kernel, "CNS", S::Fatal,
     "Compute node kernel panic: unhandled machine check"),
    ("_bgp_err_torus_sender_fifo", C::Kernel, "TORUS", S::Fatal,
     "Torus sender FIFO parity error"),
    ("_bgp_err_torus_receiver_parity", C::Kernel, "TORUS", S::Fatal,
     "Torus receiver header parity error"),
    ("_bgp_err_collective_net_hw", C::Kernel, "COLLECTIVE", S::Fatal,
     "Collective network hardware error: class route corrupt"),
    ("_bgp_err_ionode_crash", C::Kernel, "CIOD", S::Fatal,
     "I/O node crashed: CIOD heartbeat lost"),
    ("_bgp_err_gpfs_mount_failure", C::Kernel, "CIOD", S::Fatal,
     "GPFS mount failure on I/O node"),
    ("_bgp_err_node_ecc_uncorrectable", C::Kernel, "_bgp_unit_ddr", S::Fatal,
     "Uncorrectable ECC error in compute node DRAM"),
    ("_bgp_err_l2_cache_failure", C::Kernel, "CNS", S::Fatal,
     "L2 cache failure: persistent line error"),
    ("_bgp_err_l3_edram_failure", C::Kernel, "CNS", S::Fatal,
     "L3 eDRAM failure: bank disabled"),
    ("_bgp_err_fpu_unavailable", C::Kernel, "CNS", S::Fatal,
     "Double hummer FPU unavailable exception"),
    ("_bgp_err_nodecard_power", C::Card, "PALOMINO_N", S::Fatal,
     "Node card power domain fault"),
    ("_bgp_err_servicecard_comm", C::Card, "PALOMINO_S", S::Fatal,
     "Service card communication failure"),
    ("DetectedClockCardErrors", C::Card, "PALOMINO_S", S::Fatal,
     "An error(s) was detected by the Clock card : Error=Loss of reference input"),
    ("_bgp_err_mmcs_boot_failure", C::Mmcs, "MMCS_SERVER", S::Fatal,
     "Partition boot failed: block initialization error"),
    ("_bgp_err_mmcs_db_connection", C::Mmcs, "DB2", S::Fatal,
     "MMCS lost connection to backend DB2 database"),
    ("_bgp_err_mc_timeout", C::Mc, "MCSERVER", S::Fatal,
     "Machine controller command timeout"),
    ("_bgp_err_baremetal_svc", C::Baremetal, "SVC", S::Fatal,
     "Bare metal service operation failed"),
    ("_bgp_err_io_collective_sync", C::Kernel, "COLLECTIVE", S::Fatal,
     "I/O collective synchronization lost"),
    ("_bgp_err_eth_10g_link_down", C::Kernel, "ETH", S::Fatal,
     "10-Gigabit Ethernet link down on I/O node"),
    // ------ the long tail: codes that (in the Intrepid window) fired only on
    // idle hardware, leaving their impact undetermined (49 codes) ------
    ("_bgp_err_diag_memory_stress", C::Diags, "MEMDIAG", S::Fatal,
     "Diagnostic memory stress test failed"),
    ("_bgp_err_diag_torus_loopback", C::Diags, "NETDIAG", S::Fatal,
     "Diagnostic torus loopback test failed"),
    ("_bgp_err_diag_lane_calibration", C::Diags, "NETDIAG", S::Fatal,
     "Diagnostic SerDes lane calibration failed"),
    ("_bgp_err_diag_clock_jitter", C::Diags, "CLKDIAG", S::Fatal,
     "Diagnostic clock jitter out of tolerance"),
    ("_bgp_err_diag_power_rail", C::Diags, "PWRDIAG", S::Fatal,
     "Diagnostic power rail margin test failed"),
    ("_bgp_err_diag_thermal_sensor", C::Diags, "ENVDIAG", S::Fatal,
     "Diagnostic thermal sensor readout invalid"),
    ("_bgp_err_diag_sram_bist", C::Diags, "MEMDIAG", S::Fatal,
     "Diagnostic SRAM built-in self test failed"),
    ("_bgp_err_diag_eth_phy", C::Diags, "NETDIAG", S::Fatal,
     "Diagnostic Ethernet PHY test failed"),
    ("_bgp_err_card_temp_over", C::Card, "PALOMINO_S", S::Fatal,
     "Card temperature exceeded critical threshold"),
    ("_bgp_err_card_fan_failure", C::Card, "PALOMINO_S", S::Fatal,
     "Fan assembly failure detected"),
    ("_bgp_err_card_voltage_dip", C::Card, "PALOMINO_B", S::Fatal,
     "Bulk power voltage dip below regulation"),
    ("_bgp_err_card_current_spike", C::Card, "PALOMINO_B", S::Fatal,
     "Bulk power current spike detected"),
    ("_bgp_err_card_vpd_read", C::Card, "PALOMINO_S", S::Fatal,
     "Vital product data read failure"),
    ("_bgp_err_card_i2c_bus", C::Card, "PALOMINO_S", S::Fatal,
     "I2C bus error on service card"),
    ("_bgp_err_card_jtag_chain", C::Card, "PALOMINO_S", S::Fatal,
     "JTAG chain integrity error"),
    ("_bgp_err_card_power_seq", C::Card, "PALOMINO_N", S::Fatal,
     "Node card power sequencing fault"),
    ("_bgp_err_mc_heartbeat_lost", C::Mc, "MCSERVER", S::Fatal,
     "Machine controller heartbeat lost"),
    ("_bgp_err_mc_fw_checksum", C::Mc, "MCSERVER", S::Fatal,
     "Firmware image checksum mismatch"),
    ("_bgp_err_mc_cmd_reject", C::Mc, "MCSERVER", S::Fatal,
     "Machine controller rejected malformed command"),
    ("_bgp_err_mc_env_poll", C::Mc, "ENVMON", S::Fatal,
     "Environmental polling failure"),
    ("_bgp_err_mmcs_block_free", C::Mmcs, "MMCS_SERVER", S::Fatal,
     "Block free operation failed"),
    ("_bgp_err_mmcs_console_lost", C::Mmcs, "MMCS_SERVER", S::Fatal,
     "Mailbox console connection lost"),
    ("_bgp_err_mmcs_event_overflow", C::Mmcs, "MMCS_SERVER", S::Fatal,
     "RAS event queue overflow in control system"),
    ("_bgp_err_mmcs_partition_state", C::Mmcs, "MMCS_SERVER", S::Fatal,
     "Partition state machine inconsistency"),
    ("_bgp_err_baremetal_flash", C::Baremetal, "SVC", S::Fatal,
     "Flash update failed on service node"),
    ("_bgp_err_baremetal_netboot", C::Baremetal, "SVC", S::Fatal,
     "Network boot image load failure"),
    ("_bgp_err_baremetal_fw_load", C::Baremetal, "SVC", S::Fatal,
     "Firmware load failure"),
    ("_bgp_err_kernel_rtc_drift", C::Kernel, "CNS", S::Fatal,
     "Real-time clock drift beyond correction limit"),
    ("_bgp_err_kernel_tlb_parity", C::Kernel, "CNS", S::Fatal,
     "TLB parity error"),
    ("_bgp_err_kernel_dcr_timeout", C::Kernel, "CNS", S::Fatal,
     "DCR access timeout"),
    ("_bgp_err_kernel_bic_interrupt", C::Kernel, "CNS", S::Fatal,
     "BIC spurious interrupt storm"),
    ("_bgp_err_kernel_upc_overflow", C::Kernel, "CNS", S::Fatal,
     "Universal performance counter overflow fault"),
    ("_bgp_err_kernel_snoop_filter", C::Kernel, "CNS", S::Fatal,
     "Snoop filter error"),
    ("_bgp_err_kernel_dma_fifo", C::Kernel, "TORUS", S::Fatal,
     "DMA injection FIFO error"),
    ("_bgp_err_kernel_lockbox", C::Kernel, "CNS", S::Fatal,
     "Lockbox allocation failure"),
    ("_bgp_err_kernel_mailbox_timeout", C::Kernel, "CNS", S::Fatal,
     "Mailbox to service node timeout"),
    ("_bgp_err_kernel_barrier_net", C::Kernel, "COLLECTIVE", S::Fatal,
     "Global barrier network error"),
    ("_bgp_err_kernel_global_int", C::Kernel, "COLLECTIVE", S::Fatal,
     "Global interrupt wire stuck"),
    ("_bgp_err_kernel_serdes_retrain", C::Kernel, "TORUS", S::Fatal,
     "SerDes link retrain limit exceeded"),
    ("_bgp_err_diag_ddr_margin", C::Diags, "MEMDIAG", S::Fatal,
     "Diagnostic DDR timing margin test failed"),
    ("_bgp_err_diag_cache_scrub", C::Diags, "MEMDIAG", S::Fatal,
     "Diagnostic cache scrub found persistent error"),
    ("_bgp_err_diag_netbist", C::Diags, "NETDIAG", S::Fatal,
     "Diagnostic network BIST failure"),
    ("_bgp_err_diag_pll_lock", C::Diags, "CLKDIAG", S::Fatal,
     "Diagnostic PLL failed to lock"),
    ("_bgp_err_card_clock_mux", C::Card, "PALOMINO_S", S::Fatal,
     "Clock multiplexer select error"),
    ("_bgp_err_card_optic_module", C::Card, "PALOMINO_L", S::Fatal,
     "Optical module degraded beyond threshold"),
    ("_bgp_err_mc_scan_chain", C::Mc, "MCSERVER", S::Fatal,
     "Scan chain read error"),
    ("_bgp_err_mmcs_rm_sync", C::Mmcs, "MMCS_SERVER", S::Fatal,
     "Resource manager synchronization failure"),
    ("_bgp_err_baremetal_ipmi", C::Baremetal, "SVC", S::Fatal,
     "IPMI transport failure on service node"),
    ("_bgp_err_kernel_envmon_fatal", C::Kernel, "CNS", S::Fatal,
     "Kernel environmental monitor raised fatal alert"),
    // ------ background (non-FATAL) codes: the log's bulk volume ------
    ("_bgp_info_boot_progress", C::Kernel, "CNS", S::Info,
     "Boot progress: kernel initialized"),
    ("_bgp_info_partition_boot", C::Mmcs, "MMCS_SERVER", S::Info,
     "Partition boot initiated (reboot before execution)"),
    ("_bgp_info_job_start", C::Mmcs, "MMCS_SERVER", S::Info,
     "Job launched on partition"),
    ("_bgp_info_recovery_progress", C::Mmcs, "MMCS_SERVER", S::Info,
     "Automatic recovery in progress"),
    ("_bgp_warn_ecc_corrected", C::Kernel, "_bgp_unit_ddr", S::Warning,
     "Correctable ECC event (single symbol)"),
    ("_bgp_warn_single_symbol_error", C::Kernel, "_bgp_unit_ddr", S::Warning,
     "Single symbol error corrected by chipkill"),
    ("_bgp_warn_torus_retransmit", C::Kernel, "TORUS", S::Warning,
     "Torus packet retransmission"),
    ("_bgp_warn_temp_high", C::Card, "PALOMINO_S", S::Warning,
     "Temperature approaching threshold"),
    ("_bgp_err_redundant_psu_loss", C::Card, "PALOMINO_B", S::Error,
     "Loss of redundant power supply; running unprotected"),
    ("_bgp_err_link_crc_retry", C::Kernel, "TORUS", S::Error,
     "Link CRC error retry threshold warning"),
    ("_bgp_err_io_retry_exhausted", C::Kernel, "CIOD", S::Error,
     "I/O retry budget exhausted; degraded mode"),
    ("_bgp_warn_fan_speed", C::Card, "PALOMINO_S", S::Warning,
     "Fan speed outside nominal band"),
    ("_bgp_info_env_poll", C::Mc, "ENVMON", S::Info,
     "Environmental polling cycle complete"),
    ("_bgp_err_spare_bit_steer", C::Kernel, "_bgp_unit_ddr", S::Error,
     "Spare DRAM bit steering activated"),
    // ------ synthetic syslog namespace (bgp-ports syslog adapter) ------
    // One code per RFC 3164 facility, appended AFTER every BG/P code so the
    // dense ErrCode indices of the original catalogue never move (snapshot
    // compatibility). The row severity is only the *default*; the adapter
    // carries the per-message syslog severity on the record itself.
    ("syslog_kern", C::Application, "SYSLOG", S::Info, "syslog facility kern"),
    ("syslog_user", C::Application, "SYSLOG", S::Info, "syslog facility user"),
    ("syslog_mail", C::Application, "SYSLOG", S::Info, "syslog facility mail"),
    ("syslog_daemon", C::Application, "SYSLOG", S::Info, "syslog facility daemon"),
    ("syslog_auth", C::Application, "SYSLOG", S::Info, "syslog facility auth"),
    ("syslog_syslog", C::Application, "SYSLOG", S::Info, "syslog facility syslog"),
    ("syslog_lpr", C::Application, "SYSLOG", S::Info, "syslog facility lpr"),
    ("syslog_news", C::Application, "SYSLOG", S::Info, "syslog facility news"),
    ("syslog_uucp", C::Application, "SYSLOG", S::Info, "syslog facility uucp"),
    ("syslog_cron", C::Application, "SYSLOG", S::Info, "syslog facility cron"),
    ("syslog_authpriv", C::Application, "SYSLOG", S::Info, "syslog facility authpriv"),
    ("syslog_ftp", C::Application, "SYSLOG", S::Info, "syslog facility ftp"),
    ("syslog_ntp", C::Application, "SYSLOG", S::Info, "syslog facility ntp"),
    ("syslog_audit", C::Application, "SYSLOG", S::Info, "syslog facility audit"),
    ("syslog_alert", C::Application, "SYSLOG", S::Info, "syslog facility alert"),
    ("syslog_clock", C::Application, "SYSLOG", S::Info, "syslog facility clock"),
    ("syslog_local0", C::Application, "SYSLOG", S::Info, "syslog facility local0"),
    ("syslog_local1", C::Application, "SYSLOG", S::Info, "syslog facility local1"),
    ("syslog_local2", C::Application, "SYSLOG", S::Info, "syslog facility local2"),
    ("syslog_local3", C::Application, "SYSLOG", S::Info, "syslog facility local3"),
    ("syslog_local4", C::Application, "SYSLOG", S::Info, "syslog facility local4"),
    ("syslog_local5", C::Application, "SYSLOG", S::Info, "syslog facility local5"),
    ("syslog_local6", C::Application, "SYSLOG", S::Info, "syslog facility local6"),
    ("syslog_local7", C::Application, "SYSLOG", S::Info, "syslog facility local7"),
];

impl Catalog {
    /// The standard Intrepid-like catalogue (shared singleton).
    pub fn standard() -> &'static Catalog {
        static INSTANCE: OnceLock<Catalog> = OnceLock::new();
        INSTANCE.get_or_init(|| {
            let entries: Vec<CodeInfo> = TABLE
                .iter()
                .enumerate()
                .map(
                    |(i, &(name, component, subcomponent, severity, template))| CodeInfo {
                        name,
                        component,
                        subcomponent,
                        severity,
                        msg_id: format!("{}_{:04}", component.msg_id_prefix(), i),
                        template,
                    },
                )
                .collect();
            let texts: Vec<CodeText> = entries.iter().map(CodeText::of).collect();
            let mut slots = vec![None; 1 << SLOT_BITS];
            let mut head_slots = vec![None; 1 << SLOT_BITS];
            for (i, (e, text)) in entries.iter().zip(&texts).enumerate() {
                let code = ErrCode(i as u16);
                insert(&mut slots, name_slot(e.name.as_bytes()), code);
                if let Some(key) = head_key(&text.head) {
                    insert(&mut head_slots, home_slot(key), code);
                }
            }
            Catalog {
                entries,
                texts,
                slots,
                head_slots,
            }
        })
    }

    /// Number of codes in the catalogue.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Never true for the standard catalogue.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Static information for a code.
    ///
    /// # Panics
    /// Panics if `code` is out of range for this catalogue (codes are only
    /// minted by [`Catalog::lookup`] / [`Catalog::codes`], so an out-of-range
    /// code is a logic error, not an input error).
    pub fn info(&self, code: ErrCode) -> &CodeInfo {
        &self.entries[code.index()]
    }

    /// Resolve a code by its ERRCODE token.
    pub fn lookup(&self, name: &str) -> Option<ErrCode> {
        self.lookup_bytes(name.as_bytes())
    }

    /// Resolve a code by the exact bytes of its ERRCODE token (no trimming,
    /// no UTF-8 validation: a padded or non-ASCII token is simply absent).
    pub fn lookup_bytes(&self, name: &[u8]) -> Option<ErrCode> {
        let mut slot = name_slot(name);
        loop {
            let code = self.slots[slot]?;
            if self.info(code).name.as_bytes() == name {
                return Some(code);
            }
            slot = (slot + 1) % self.slots.len();
        }
    }

    /// The line text `code` fixes.
    pub(crate) fn text(&self, code: ErrCode) -> &CodeText {
        &self.texts[code.index()]
    }

    /// The code whose [`CodeText::head`] `rest` starts with, its
    /// catalogue severity included, and that head's length; `rest` starts
    /// at RECID's `|`. `None` if no code's head is there byte for byte.
    pub(crate) fn head_code(&self, rest: &[u8]) -> Option<(ErrCode, usize)> {
        let key = head_key(rest)?;
        let mut slot = home_slot(key);
        loop {
            let code = self.head_slots[slot]?;
            let head = &self.text(code).head;
            // No two codes share a key, so only this code's head can match.
            if head_key(head) == Some(key) {
                return starts_with_words(rest, head).then_some((code, head.len()));
            }
            slot = (slot + 1) % self.head_slots.len();
        }
    }

    /// Iterate over all codes.
    pub fn codes(&self) -> impl Iterator<Item = ErrCode> + '_ {
        (0..self.entries.len()).map(|i| ErrCode(i as u16))
    }

    /// Iterate over the codes reported at FATAL severity.
    pub fn fatal_codes(&self) -> impl Iterator<Item = ErrCode> + '_ {
        self.codes()
            .filter(|&c| self.info(c).severity == Severity::Fatal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_82_fatal_codes() {
        // The paper: "33,370 records with FATAL severity ... reported with 82
        // types of ERRCODE from six types of COMPONENT".
        let cat = Catalog::standard();
        assert_eq!(cat.fatal_codes().count(), 82);
        let components: std::collections::HashSet<Component> =
            cat.fatal_codes().map(|c| cat.info(c).component).collect();
        assert_eq!(components.len(), 6, "fatal codes span six components");
        // No FATAL from the APPLICATION domain (paper, Section IV-B).
        assert!(!components.contains(&Component::Application));
    }

    #[test]
    fn names_are_unique_and_resolvable() {
        let cat = Catalog::standard();
        assert!(!cat.is_empty());
        let mut seen = std::collections::HashSet::new();
        for code in cat.codes() {
            let info = cat.info(code);
            assert!(seen.insert(info.name), "duplicate name {}", info.name);
            assert_eq!(cat.lookup(info.name), Some(code));
        }
        assert_eq!(cat.lookup("no_such_code"), None);
        assert_eq!(seen.len(), cat.len());
    }

    #[test]
    fn byte_lookup_is_exact() {
        let cat = Catalog::standard();
        for code in cat.codes() {
            let name = cat.info(code).name;
            assert_eq!(cat.lookup_bytes(name.as_bytes()), Some(code));
            for near in [
                format!(" {name}"),
                format!("{name} "),
                format!("{name}x"),
                name[1..].to_owned(),
                name[..name.len() - 1].to_owned(),
                name.to_uppercase(),
            ] {
                if near != name {
                    assert_eq!(cat.lookup_bytes(near.as_bytes()), None, "{near:?}");
                }
            }
        }
        assert_eq!(cat.lookup_bytes(b""), None);
        assert_eq!(cat.lookup_bytes(b"\xff_bgp_err_kernel_panic"), None);
    }

    #[test]
    fn every_head_is_found_whole_and_only_whole() {
        // Each code's head is its five fields between six `|`s, with a
        // probe key no other code has (`head_code` compares only the head
        // whose key matches), and it is found only where the text is the
        // head byte for byte: any one byte changed or a byte short, it is
        // not.
        let cat = Catalog::standard();
        let mut keys = std::collections::HashSet::new();
        for code in cat.codes() {
            let head = &cat.text(code).head;
            assert_eq!(head.iter().filter(|&&b| b == b'|').count(), 6);
            assert!(keys.insert(head_key(head)), "{code}: shared key");
            let line = [&head[..], b"2009-03-01-12.30.00|R00|text"].concat();
            assert_eq!(cat.head_code(&line), Some((code, head.len())));
            assert_eq!(cat.head_code(&line[..head.len()]), Some((code, head.len())));
            assert_eq!(cat.head_code(&line[..head.len() - 1]), None);
            for at in 0..head.len() {
                for flip in [0x01, 0x20, 0x80] {
                    let mut near = line.clone();
                    near[at] ^= flip;
                    assert_eq!(cat.head_code(&near), None, "{code} at {at}");
                }
            }
        }
        assert_eq!(cat.head_code(b""), None);
        assert_eq!(cat.head_code(b"|KERN_00"), None);
    }

    #[test]
    fn paper_named_codes_present() {
        let cat = Catalog::standard();
        for name in [
            "BULK_POWER_FATAL",
            "_bgp_err_torus_fatal_sum",
            "_bgp_err_cns_ras_storm_fatal",
            "CiodHungProxy",
            "bg_code_script_error",
            "_bgp_err_ddr_controller",
            "_bgp_err_fs_config",
            "_bgp_err_linkcard_failure",
            "_bgp_err_app_invalid_mem_addr",
            "_bgp_err_app_out_of_memory",
            "DetectedClockCardErrors",
        ] {
            let code = cat.lookup(name).unwrap_or_else(|| panic!("missing {name}"));
            assert_eq!(cat.info(code).severity, Severity::Fatal);
        }
    }

    #[test]
    fn msg_ids_match_component_prefix() {
        let cat = Catalog::standard();
        for code in cat.codes() {
            let info = cat.info(code);
            assert!(
                info.msg_id.starts_with(info.component.msg_id_prefix()),
                "{} has msg_id {}",
                info.name,
                info.msg_id
            );
        }
    }

    #[test]
    fn errcode_display_uses_name() {
        let cat = Catalog::standard();
        let code = cat.lookup("BULK_POWER_FATAL").unwrap();
        assert_eq!(code.to_string(), "BULK_POWER_FATAL");
    }

    #[test]
    fn background_codes_not_fatal() {
        let cat = Catalog::standard();
        let code = cat.lookup("_bgp_warn_ecc_corrected").unwrap();
        assert_eq!(cat.info(code).severity, Severity::Warning);
        let code = cat.lookup("_bgp_info_partition_boot").unwrap();
        assert_eq!(cat.info(code).severity, Severity::Info);
    }
}

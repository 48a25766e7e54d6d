//! Bridge simulated switches onto a real TCP OpenFlow controller.
//!
//! The controller front-end in `mdn-proto::controller` listens on a real
//! socket; the virtual switches in `mdn-net` queue their table misses in
//! an in-memory `miss_outbox`. An [`OfAgent`] is the glue for one
//! switch: it owns an `OfClient` connection (Hello handshake done at
//! [`OfAgent::attach`]), ships queued misses up as `PacketIn`s, and
//! applies the `FlowMod`s that come back to the switch's live flow
//! table — so a `UnifiedLoop`-driven simulation is programmed over
//! loopback exactly the way the paper's Zodiac FX switches were.
//!
//! Pump agents from `Step::App` tokens (see
//! `examples/of_controller.rs`): schedule a token per control interval,
//! call [`OfAgent::pump`] when it fires, and re-arm.

use mdn_net::{Network, NodeId};
use mdn_proto::controller::{OfClient, OfStreamError};
use mdn_proto::openflow::{FlowModCommand, OfMessage};
use std::net::ToSocketAddrs;
use std::time::Duration;

/// What one [`OfAgent::pump`] call moved across the socket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PumpReport {
    /// Table misses shipped up as `PacketIn`s.
    pub packet_ins: u64,
    /// `FlowMod`s received and applied to the switch's table.
    pub flow_mods: u64,
    /// Messages received that were not `FlowMod`s (stats replies, ...).
    pub other_rx: u64,
}

/// One simulated switch's control channel to a TCP controller.
#[derive(Debug)]
pub struct OfAgent {
    /// The switch this agent fronts.
    pub switch: NodeId,
    client: OfClient,
    /// `PacketIn`s shipped, lifetime.
    pub packet_ins_sent: u64,
    /// `FlowMod`s applied to the switch's table, lifetime.
    pub flow_mods_applied: u64,
}

impl OfAgent {
    /// Connect `switch` to the controller at `addr`: completes the
    /// Hello handshake and flips the switch's miss policy to
    /// `PacketIn` so misses queue for [`OfAgent::pump`] instead of
    /// being dropped silently.
    pub fn attach(
        net: &mut Network,
        switch: NodeId,
        addr: impl ToSocketAddrs,
        timeout: Duration,
    ) -> Result<Self, OfStreamError> {
        let client = OfClient::connect(addr, timeout)?;
        net.set_miss_policy(switch, mdn_net::node::MissPolicy::PacketIn);
        Ok(Self {
            switch,
            client,
            packet_ins_sent: 0,
            flow_mods_applied: 0,
        })
    }

    /// One control-plane exchange: drain the switch's `miss_outbox` up
    /// to the controller as `PacketIn`s, then apply whatever comes back
    /// within `linger` to the switch's flow table. `linger` bounds the
    /// wait for the *first* reply; once the link goes quiet for a
    /// short drain interval the pump returns.
    pub fn pump(&mut self, net: &mut Network, linger: Duration) -> Result<PumpReport, OfStreamError> {
        let mut report = PumpReport::default();
        let misses = std::mem::take(&mut net.switch_mut(self.switch).miss_outbox);
        for miss in &misses {
            self.client.packet_in(
                miss.in_port as u16,
                miss.flow,
                miss.total_len.min(u16::MAX as u32) as u16,
            )?;
            self.packet_ins_sent += 1;
            report.packet_ins += 1;
        }
        // First wait is the caller's linger; after any message arrives,
        // keep draining with a short follow-up so a burst of FlowMods
        // lands in one pump.
        let mut wait = linger;
        while let Some(msg) = self.client.poll(wait)? {
            wait = Duration::from_millis(20);
            if self.apply(net, &msg) {
                report.flow_mods += 1;
            } else {
                report.other_rx += 1;
            }
        }
        Ok(report)
    }

    fn apply(&mut self, net: &mut Network, msg: &OfMessage) -> bool {
        match msg {
            OfMessage::FlowMod {
                command: FlowModCommand::Add,
                ..
            } => {
                let rule = msg.as_rule().expect("Add FlowMod always yields a rule");
                net.install_rule(self.switch, rule);
                self.flow_mods_applied += 1;
                true
            }
            OfMessage::FlowMod {
                command: FlowModCommand::Delete,
                mat,
                ..
            } => {
                net.switch_mut(self.switch).table.remove(mat);
                self.flow_mods_applied += 1;
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdn_net::ftable::Decision;
    use mdn_net::packet::{FlowKey, Ip};
    use mdn_net::traffic::TrafficPattern;
    use mdn_proto::controller::{ControllerServer, LearningSwitch};

    /// h1 —(p0)— sw —(p1)— h2, CBR both ways, learning controller over
    /// loopback: after two pumps the switch forwards in both directions.
    #[test]
    fn bridge_programs_a_switch_from_packet_ins() {
        let handle = ControllerServer::new(|_| Box::new(LearningSwitch::new()))
            .serve("127.0.0.1:0")
            .expect("bind controller");

        let mut net = Network::new();
        let h1 = net.add_host("h1", Ip::v4(10, 0, 0, 1));
        let h2 = net.add_host("h2", Ip::v4(10, 0, 0, 2));
        let sw = net.add_switch("sw", 2);
        net.connect(h1, 0, sw, 0, 1_000_000_000, Duration::from_micros(10));
        net.connect(h2, 0, sw, 1, 1_000_000_000, Duration::from_micros(10));
        let fwd = FlowKey::tcp(Ip::v4(10, 0, 0, 1), 40_000, Ip::v4(10, 0, 0, 2), 80);
        for (host, flow) in [(h1, fwd), (h2, fwd.reversed())] {
            net.attach_generator(
                host,
                TrafficPattern::Cbr {
                    flow,
                    pps: 1000.0,
                    size: 500,
                    start: Duration::ZERO,
                    stop: Duration::from_millis(100),
                },
            );
        }

        let mut agent =
            OfAgent::attach(&mut net, sw, handle.addr(), Duration::from_secs(2)).expect("attach");

        // Let misses accumulate, pump them up, run on, pump again.
        net.run_until(Duration::from_millis(10));
        let r1 = agent.pump(&mut net, Duration::from_millis(300)).unwrap();
        assert!(r1.packet_ins >= 1, "first pump ships misses: {r1:?}");
        net.run_until(Duration::from_millis(20));
        let r2 = agent.pump(&mut net, Duration::from_millis(300)).unwrap();
        let installed = r1.flow_mods + r2.flow_mods;
        assert!(installed >= 2, "both directions installed: {r1:?} {r2:?}");
        assert_eq!(
            net.switch_mut(sw).table.lookup(0, &fwd),
            Decision::Forward(1)
        );
        assert_eq!(
            net.switch_mut(sw).table.lookup(1, &fwd.reversed()),
            Decision::Forward(0)
        );

        // With rules installed, traffic now reaches both hosts.
        let before = net.host(h2).rx_packets;
        net.run_until(Duration::from_millis(60));
        assert!(
            net.host(h2).rx_packets > before,
            "forwarding works after FlowMods"
        );
        assert_eq!(agent.packet_ins_sent, r1.packet_ins + r2.packet_ins);
        assert_eq!(agent.flow_mods_applied, installed);
        handle.shutdown();
    }
}

"""Simulated-MPI substrate: engine, network, matching, process API."""

from repro.sim.communicator import MailBox
from repro.sim.datatypes import ANY_SOURCE, ANY_TAG, Message, Request, RequestState, Status
from repro.sim.engine import Engine, SimStats
from repro.sim.network import LatencyModel, Network, payload_nbytes
from repro.sim.pmpi import MFController, finalize_delivery
from repro.sim.process import Compute, Ctx, MFCall, MFResult, SimProcess
from repro.sim.subcomm import SubComm

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Compute",
    "Ctx",
    "Engine",
    "LatencyModel",
    "MFCall",
    "MFController",
    "MFResult",
    "MailBox",
    "Message",
    "Network",
    "Request",
    "RequestState",
    "SimProcess",
    "SimStats",
    "Status",
    "SubComm",
    "finalize_delivery",
    "payload_nbytes",
]

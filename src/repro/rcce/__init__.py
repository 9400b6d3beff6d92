"""RCCE-style message passing for the simulated SCC.

Mirrors the blocking send/recv model of Intel's RCCE library
the paper programs against ("RCCE-2.0 for our MPI implementation").
"""

from .comm import Message, RCCEComm

__all__ = ["RCCEComm", "Message"]

"""Host-side models: the MCPC and UDP links."""

from .mcpc import MCPC, MCPCConfig
from .udp import UDPChannel, UDPConfig

__all__ = ["MCPC", "MCPCConfig", "UDPChannel", "UDPConfig"]
